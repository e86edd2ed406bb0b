package core

import (
	"context"
	"fmt"
)

// Method selects the alignment algorithm for Problem.Align.
type Method int

const (
	// MethodBP is the belief-propagation method (Listing 2), the zero
	// value so an unset Options.Method keeps the library's default.
	MethodBP Method = iota
	// MethodMR is Klau's matching relaxation (Listing 1).
	MethodMR
)

// String returns the method's canonical name ("bp" or "mr").
func (m Method) String() string {
	switch m {
	case MethodMR:
		return "mr"
	default:
		return "bp"
	}
}

// MarshalText implements encoding.TextMarshaler.
func (m Method) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler; it accepts "bp",
// "mr", and the historical alias "klau".
func (m *Method) UnmarshalText(text []byte) error {
	switch string(text) {
	case "bp", "BP":
		*m = MethodBP
	case "mr", "MR", "klau":
		*m = MethodMR
	default:
		return fmt.Errorf("core: unknown method %q (want bp or mr)", text)
	}
	return nil
}

// Options configures Problem.Align: the method plus its option set.
// Only the selected method's options are read, so a caller switching
// methods at runtime can populate both sides once.
type Options struct {
	// Method selects the algorithm (default MethodBP).
	Method Method
	// BP configures MethodBP.
	BP BPOptions
	// MR configures MethodMR.
	MR MROptions
}

// Align runs the selected alignment method under a context. It is the
// single entry point the method-specific wrappers (BPAlign, KlauAlign,
// BPAlignCtx, MRAlignCtx) delegate to; new code should call it
// directly. A nil context means context.Background().
//
// Cancellation, checkpoint/resume, the numeric guard, and the error
// contract are those of the selected method — see the option types.
func (p *Problem) Align(ctx context.Context, o Options) (*AlignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch o.Method {
	case MethodBP:
		return p.bpAlign(ctx, o.BP)
	case MethodMR:
		return p.mrAlign(ctx, o.MR)
	default:
		err := fmt.Errorf("core: unknown method %d", o.Method)
		res := p.emptyResult()
		res.Err = err
		return res, err
	}
}
