package matching

import (
	"fmt"
	"strconv"
	"strings"
)

// MatcherSpec is the declarative description of a rounding matcher:
// a name plus its parameters. It is the one way configuration surfaces
// (CLI flags, the netalignd job JSON, the bench harness) construct
// matchers — replacing the ad-hoc string switches each of them used to
// carry — and it round-trips through encoding.TextMarshaler /
// TextUnmarshaler so it embeds directly in flags and JSON.
//
// The text form is the name, optionally followed by parenthesized
// key=value parameters:
//
//	exact
//	approx
//	locally-dominant(onesided=true,sorted=true,chunk=256)
//	auction(eps=1e-4)
//
// Recognized names: exact, greedy, approx, locally-dominant, suitor,
// path-growing, auction. approx runs Suitor, which returns the same
// matching as the paper's configuration, locally-dominant with
// one-sided initialization, at lower cost; that configuration itself
// is locally-dominant(onesided=true). approx accepts sorted and chunk
// and ignores them, and its canonical text keeps them. The zero value
// selects exact matching, so an absent configuration field keeps the
// historical default.
type MatcherSpec struct {
	// Name selects the algorithm; empty means exact.
	Name string
	// Eps is the auction matcher's termination tolerance (auction
	// only; 0 selects 1e-6).
	Eps float64
	// OneSided enables the bipartite one-sided initialization
	// (locally-dominant only; parsing "approx" sets it, and approx
	// ignores it).
	OneSided bool
	// Sorted enables the sorted-adjacency FINDMATE acceleration
	// (locally-dominant; accepted and ignored by approx).
	Sorted bool
	// Chunk overrides the dynamic-schedule chunk size
	// (locally-dominant, 0 = default; accepted and ignored by approx).
	Chunk int
}

// matcherNames lists the recognized spec names in display order.
var matcherNames = []string{
	"exact", "greedy", "approx", "locally-dominant", "suitor", "path-growing", "auction",
}

// MatcherNames returns the recognized MatcherSpec names.
func MatcherNames() []string {
	return append([]string(nil), matcherNames...)
}

// ParseMatcherSpec parses the text form of a MatcherSpec.
func ParseMatcherSpec(text string) (MatcherSpec, error) {
	var s MatcherSpec
	if err := s.UnmarshalText([]byte(text)); err != nil {
		return MatcherSpec{}, err
	}
	return s, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *MatcherSpec) UnmarshalText(text []byte) error {
	raw := strings.TrimSpace(string(text))
	*s = MatcherSpec{}
	if raw == "" {
		return nil
	}
	name := raw
	params := ""
	if i := strings.IndexByte(raw, '('); i >= 0 {
		if !strings.HasSuffix(raw, ")") {
			return fmt.Errorf("matching: spec %q: unbalanced parameter list", raw)
		}
		name, params = raw[:i], raw[i+1:len(raw)-1]
	}
	s.Name = strings.ToLower(strings.TrimSpace(name))
	valid := false
	for _, n := range matcherNames {
		if s.Name == n {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("matching: unknown matcher %q (want one of %s)", s.Name, strings.Join(matcherNames, ", "))
	}
	if s.Name == "approx" {
		s.OneSided = true
	}
	if params == "" {
		return nil
	}
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("matching: spec %q: parameter %q is not key=value", raw, kv)
		}
		k, v = strings.ToLower(strings.TrimSpace(k)), strings.TrimSpace(v)
		var err error
		switch k {
		case "eps":
			s.Eps, err = strconv.ParseFloat(v, 64)
			if err == nil && s.Eps <= 0 {
				err = fmt.Errorf("eps must be positive")
			}
		case "onesided":
			s.OneSided, err = strconv.ParseBool(v)
		case "sorted":
			s.Sorted, err = strconv.ParseBool(v)
		case "chunk":
			s.Chunk, err = strconv.Atoi(v)
			if err == nil && s.Chunk < 0 {
				err = fmt.Errorf("chunk must be non-negative")
			}
		default:
			return fmt.Errorf("matching: spec %q: unknown parameter %q", raw, k)
		}
		if err != nil {
			return fmt.Errorf("matching: spec %q: parameter %s: %v", raw, k, err)
		}
	}
	if err := s.validateParams(); err != nil {
		return fmt.Errorf("matching: spec %q: %w", raw, err)
	}
	return nil
}

// validateParams rejects parameters that do not apply to the named
// algorithm, so a typo like exact(eps=1) fails loudly instead of
// silently configuring nothing.
func (s *MatcherSpec) validateParams() error {
	switch s.Name {
	case "auction":
		if s.OneSided || s.Sorted || s.Chunk != 0 {
			return fmt.Errorf("auction accepts only eps")
		}
	case "locally-dominant", "approx":
		if s.Eps != 0 {
			return fmt.Errorf("%s does not accept eps", s.Name)
		}
	default:
		if s.Eps != 0 || s.OneSided && s.Name != "approx" || s.Sorted || s.Chunk != 0 {
			return fmt.Errorf("%s accepts no parameters", s.Name)
		}
	}
	return nil
}

// MarshalText implements encoding.TextMarshaler; the output is the
// canonical text form and round-trips through UnmarshalText.
func (s MatcherSpec) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// String returns the canonical text form.
func (s MatcherSpec) String() string {
	name := s.Name
	if name == "" {
		name = "exact"
	}
	var params []string
	switch name {
	case "auction":
		if s.Eps != 0 {
			params = append(params, "eps="+strconv.FormatFloat(s.Eps, 'g', -1, 64))
		}
	case "locally-dominant":
		if s.OneSided {
			params = append(params, "onesided=true")
		}
		fallthrough
	case "approx":
		if s.Sorted {
			params = append(params, "sorted=true")
		}
		if s.Chunk != 0 {
			params = append(params, "chunk="+strconv.Itoa(s.Chunk))
		}
	}
	if len(params) == 0 {
		return name
	}
	return name + "(" + strings.Join(params, ",") + ")"
}

// Matcher constructs the configured Matcher.
func (s MatcherSpec) Matcher() (Matcher, error) {
	if err := s.validateParams(); err != nil {
		return nil, fmt.Errorf("matching: spec %q: %w", s.String(), err)
	}
	switch s.Name {
	case "", "exact":
		return Exact, nil
	case "greedy":
		return Greedy, nil
	case "approx":
		return Approx, nil
	case "locally-dominant":
		return NewLocallyDominantMatcher(LocallyDominantOptions{
			OneSidedInit: s.OneSided, SortedAdjacency: s.Sorted, Chunk: s.Chunk,
		}), nil
	case "suitor":
		return Suitor, nil
	case "path-growing":
		return PathGrowing, nil
	case "auction":
		eps := s.Eps
		if eps == 0 {
			eps = 1e-6
		}
		return NewAuctionMatcher(eps), nil
	default:
		return nil, fmt.Errorf("matching: unknown matcher %q", s.Name)
	}
}
