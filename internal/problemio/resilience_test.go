package problemio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"netalignmc/internal/core"
)

// Malformed-input suites: every reader must turn broken input into an
// error — never a panic, never a silently wrong problem.

func TestFaultMalformedSMAT(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"garbage", "hello world\nthis is not a matrix\n"},
		{"short header", "3 3\n"},
		{"non-numeric header", "a b c\n"},
		{"negative dims", "-1 3 0\n"},
		{"negative nnz", "3 3 -2\n"},
		{"truncated entries", "3 3 2\n0 0 1\n"},
		{"short entry", "3 3 1\n0 1\n"},
		{"non-numeric entry", "3 3 1\n0 x 1\n"},
		{"row out of range", "3 3 1\n3 0 1\n"},
		{"negative index", "3 3 1\n-1 0 1\n"},
		{"nan weight", "3 3 1\n0 0 NaN\n"},
		{"inf weight", "3 3 1\n0 0 +Inf\n"},
		{"trailing content", "2 2 1\n0 0 1\n1 1 1\n"},
		{"absurd dims", "9999999999 1 1\n0 0 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadLSMAT(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("ReadLSMAT accepted %q", tc.in)
			}
			if _, _, _, err := readSMAT(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("readSMAT accepted %q", tc.in)
			}
		})
	}
	// Square-only constraint for graphs.
	if _, err := ReadGraphSMAT(strings.NewReader("2 3 0\n")); err == nil {
		t.Fatal("rectangular graph smat accepted")
	}
}

func TestFaultMalformedMTX(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"no banner", "2 2 1\n1 1 1\n"},
		{"bad banner", "%%MatrixMarket tensor coordinate real general\n2 2 0\n"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n2 2 0\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate real hermitian\n2 2 0\n"},
		{"missing size", "%%MatrixMarket matrix coordinate real general\n"},
		{"bad size", "%%MatrixMarket matrix coordinate real general\n2 x 1\n"},
		{"negative size", "%%MatrixMarket matrix coordinate real general\n-2 2 0\n"},
		{"truncated entries", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n"},
		{"out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"},
		{"nan value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n"},
		{"inf value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 Inf\n"},
		{"pattern with value", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 1\n"},
		{"absurd dims", "%%MatrixMarket matrix coordinate real general\n9999999999 2 1\n1 1 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadLMTX(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("ReadLMTX accepted %q", tc.in)
			}
		})
	}
	if _, err := ReadGraphMTX(strings.NewReader("%%MatrixMarket matrix coordinate pattern general\n2 3 0\n")); err == nil {
		t.Fatal("rectangular graph mtx accepted")
	}
}

func TestFaultMalformedNetalign(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"garbage", "what even is this\n"},
		{"missing header", "alpha 1\nbeta 1\n"},
		{"bad version", "netalign 2\n"},
		{"nan alpha", "netalign 1\nalpha NaN\n"},
		{"inf beta", "netalign 1\nbeta Inf\n"},
		{"missing graphs", "netalign 1\nalpha 1\nbeta 1\n"},
		{"truncated graph", "netalign 1\ngraph A 3 2\n0 1\n"},
		{"bad edge index", "netalign 1\ngraph A 3 1\n0 9\n"},
		{"negative edge", "netalign 1\ngraph A 3 1\n-1 0\n"},
		{"bad L weight", "netalign 1\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 1\n0 0 NaN\n"},
		{"L index out of range", "netalign 1\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 1\n0 5 1\n"},
		{"absurd graph size", "netalign 1\ngraph A 9999999999 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.in), 1); err == nil {
				t.Fatalf("Read accepted %q", tc.in)
			}
		})
	}
}

// Fuzz targets: the seed corpus runs on every plain `go test`; under
// `go test -fuzz` the engine mutates it. The property is uniform:
// arbitrary bytes must produce (result, nil) or (nil, error), never a
// panic, and accepted candidate graphs must carry only finite weights.

func FuzzReadSMAT(f *testing.F) {
	f.Add("3 3 2\n0 1 1\n1 0 1\n")
	f.Add("2 2 1\n0 0 2.5\n")
	f.Add("")
	f.Add("1 1 1\n0 0 NaN\n")
	f.Add("# comment\n2 2 0\n")
	f.Add("9999999999 1 1\n0 0 1\n")
	f.Add("2 2 1\n0 0 1e308\n")
	f.Fuzz(func(t *testing.T, in string) {
		l, err := ReadLSMAT(strings.NewReader(in))
		if err == nil && l != nil {
			for _, w := range l.W {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("accepted non-finite weight %g", w)
				}
			}
		}
		_, _ = ReadGraphSMAT(strings.NewReader(in))
	})
}

func FuzzReadMTX(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 Infinity\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	f.Fuzz(func(t *testing.T, in string) {
		l, err := ReadLMTX(strings.NewReader(in))
		if err == nil && l != nil {
			for _, w := range l.W {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("accepted non-finite weight %g", w)
				}
			}
		}
		_, _ = ReadGraphMTX(strings.NewReader(in))
	})
}

// Checkpoint round-trips: the serialized form must reproduce every
// float64 bit for bit (the hex format guarantees this) and reject
// corruption.

func bpCheckpoint() *core.Checkpoint {
	return &core.Checkpoint{
		Method: "bp", Iter: 17,
		Alpha: 0.1, Beta: 2.0 / 3.0,
		NA: 3, NB: 4, EL: 5, NNZ: 2,
		Y:      []float64{1.0 / 3.0, -2.718281828459045, 1e-300, math.MaxFloat64, 0},
		Z:      []float64{0.1, 0.2, 0.3, -0.4, math.SmallestNonzeroFloat64},
		SK:     []float64{-1e100, 3.141592653589793},
		GammaK: 0.39999999999999997, Tighten: 0.5, Failures: 2,
		HasBest: true, BestIter: 9, Evaluations: 17,
		BestObjective: 42.00000000000001,
		BestHeuristic: []float64{5, 4, 3, 2, 1},
		BestMateA:     []int{2, -1, 0},
	}
}

func mrCheckpoint() *core.Checkpoint {
	return &core.Checkpoint{
		Method: "mr", Iter: 3,
		Alpha: 1, Beta: 2,
		NA: 2, NB: 2, EL: 4, NNZ: 4,
		U:     []float64{0.25, -0.125, 1.0 / 7.0, 0},
		Gamma: 0.4, BestUpper: 17.3, HaveUpper: true, SinceImproved: 1,
		Tighten: 1, Failures: 0,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	writers := map[string]func(io.Writer, *core.Checkpoint) error{
		"v1": writeCheckpointV1, "v2": WriteCheckpoint,
	}
	for version, write := range writers {
		for _, c := range []*core.Checkpoint{bpCheckpoint(), mrCheckpoint()} {
			var buf bytes.Buffer
			if err := write(&buf, c); err != nil {
				t.Fatal(err)
			}
			got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s %s: %v\n%q", version, c.Method, err, buf.Bytes())
			}
			compareCheckpoints(t, c, got)
		}
	}
}

// TestCheckpointV2ExactBuffer: the encoder sizes its one buffer exactly.
func TestCheckpointV2ExactBuffer(t *testing.T) {
	noBest := mrCheckpoint()
	noBest.HasBest = false
	for _, c := range []*core.Checkpoint{bpCheckpoint(), mrCheckpoint(), noBest} {
		b := mustEncode(t, c)
		if len(b) != cap(b) {
			t.Fatalf("%s: encoded %d bytes into a %d-byte buffer", c.Method, len(b), cap(b))
		}
	}
}

func compareCheckpoints(t *testing.T, want, got *core.Checkpoint) {
	t.Helper()
	if got.Method != want.Method || got.Iter != want.Iter {
		t.Fatalf("method/iter: %v/%d vs %v/%d", got.Method, got.Iter, want.Method, want.Iter)
	}
	sameF := func(name string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s not bit-identical: %x vs %x", name, a, b)
		}
	}
	sameVec := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] not bit-identical: %x vs %x", name, i, a[i], b[i])
			}
		}
	}
	sameF("alpha", got.Alpha, want.Alpha)
	sameF("beta", got.Beta, want.Beta)
	sameF("gammak", got.GammaK, want.GammaK)
	sameF("gamma", got.Gamma, want.Gamma)
	sameF("bestupper", got.BestUpper, want.BestUpper)
	sameF("tighten", got.Tighten, want.Tighten)
	sameF("bestobjective", got.BestObjective, want.BestObjective)
	sameVec("y", got.Y, want.Y)
	sameVec("z", got.Z, want.Z)
	sameVec("sk", got.SK, want.SK)
	sameVec("u", got.U, want.U)
	sameVec("bestheur", got.BestHeuristic, want.BestHeuristic)
	if got.HaveUpper != want.HaveUpper || got.SinceImproved != want.SinceImproved ||
		got.Failures != want.Failures || got.HasBest != want.HasBest ||
		got.BestIter != want.BestIter || got.Evaluations != want.Evaluations {
		t.Fatalf("scalar state mismatch: %+v vs %+v", got, want)
	}
	if len(got.BestMateA) != len(want.BestMateA) {
		t.Fatalf("mates length %d vs %d", len(got.BestMateA), len(want.BestMateA))
	}
	for i := range want.BestMateA {
		if got.BestMateA[i] != want.BestMateA[i] {
			t.Fatalf("mate[%d] = %d, want %d", i, got.BestMateA[i], want.BestMateA[i])
		}
	}
}

func TestCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	c := bpCheckpoint()
	if err := WriteCheckpointFile(path, c); err != nil {
		t.Fatal(err)
	}
	// Overwrite with new state; the rename must replace, not append.
	c.Iter = 18
	if err := WriteCheckpointFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 18 {
		t.Fatalf("iter = %d after rewrite", got.Iter)
	}
	// No stray temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestFaultMalformedCheckpoint(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCheckpointV1(&buf, bpCheckpoint()); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad magic", "netalign-problem 1\n"},
		{"bad version", strings.Replace(valid, "netalign-checkpoint 1", "netalign-checkpoint 9", 1)},
		{"bad method", strings.Replace(valid, "method bp", "method lp", 1)},
		{"negative iter", strings.Replace(valid, "iter 17", "iter -1", 1)},
		{"nan scalar", strings.Replace(valid, "bp 0x1", "bp NaN0x1", 1)},
		{"truncated", valid[:len(valid)/2]},
		{"no end", strings.TrimSuffix(valid, "end\n")},
		{"mate out of range", strings.Replace(valid, "2 -1 0\n", "2 -1 99\n", 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.in == valid {
				t.Fatalf("edit %q left the checkpoint unchanged", tc.name)
			}
			if _, err := ReadCheckpoint(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("corrupt checkpoint accepted (%s)", tc.name)
			}
		})
	}
	// Writer-side validation.
	if err := WriteCheckpoint(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil checkpoint written")
	}
	if err := WriteCheckpoint(&bytes.Buffer{}, &core.Checkpoint{Method: "lp"}); err == nil {
		t.Fatal("unknown method written")
	}
}

// reseal replaces a version-2 body's trailer with a valid checksum, so
// a test edit reaches the structural checks behind it.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
}

// resealEdit applies old→new to a version-2 encoding's body and
// reseals it; the edit must apply.
func resealEdit(t *testing.T, enc []byte, old, new string) []byte {
	t.Helper()
	body := enc[:len(enc)-crc32.Size]
	if !bytes.Contains(body, []byte(old)) {
		t.Fatalf("%q not in the encoding", old)
	}
	return reseal(bytes.Replace(body, []byte(old), []byte(new), 1))
}

// v2Boundaries returns every offset at which a version-2 encoding's
// lines and raw sections start, plus the end of "end" and of the file.
func v2Boundaries(t *testing.T, b []byte) []int {
	t.Helper()
	var offs []int
	for off := 0; ; {
		offs = append(offs, off)
		eol := bytes.IndexByte(b[off:], '\n')
		if eol < 0 {
			t.Fatalf("no line at byte %d", off)
		}
		f := strings.Fields(string(b[off : off+eol]))
		off += eol + 1
		switch f[0] {
		case "vec", "mates":
			n, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				t.Fatal(err)
			}
			offs = append(offs, off)
			off += 8 * n
		case "end":
			return append(offs, off, len(b))
		}
	}
}

func TestFaultMalformedCheckpointV2(t *testing.T) {
	valid := mustEncode(t, bpCheckpoint())
	edited := func(edit func(c *core.Checkpoint)) []byte {
		c := bpCheckpoint()
		edit(c)
		return mustEncode(t, c)
	}
	flipped := append([]byte(nil), valid...)
	flipped[bytes.Index(valid, []byte("vec sk 2\n"))+len("vec sk 2\n")+3] ^= 0x10
	cases := []struct {
		name string
		in   []byte
	}{
		{"flipped value bit", flipped},
		{"bad checksum", append(valid[:len(valid)-1:len(valid)-1], valid[len(valid)-1]^1)},
		{"sk longer than nnz", edited(func(c *core.Checkpoint) { c.SK = append(c.SK, 1) })},
		{"y shorter than el", edited(func(c *core.Checkpoint) { c.Y = c.Y[:4] })},
		{"mates longer than na", edited(func(c *core.Checkpoint) { c.BestMateA = append(c.BestMateA, 0) })},
		{"nan value", edited(func(c *core.Checkpoint) { c.SK[1] = math.NaN() })},
		{"inf value", edited(func(c *core.Checkpoint) { c.BestHeuristic[0] = math.Inf(-1) })},
		{"nan scalar", edited(func(c *core.Checkpoint) { c.GammaK = math.NaN() })},
		{"mate out of range", edited(func(c *core.Checkpoint) { c.BestMateA[0] = 4 })},
		{"mate below -1", edited(func(c *core.Checkpoint) { c.BestMateA[0] = -2 })},
		{"negative iter", edited(func(c *core.Checkpoint) { c.Iter = -1 })},
		{"bad method", resealEdit(t, valid, "method bp", "method lp")},
		{"bad version", resealEdit(t, valid, "netalign-checkpoint 2\n", "netalign-checkpoint 3\n")},
		{"unknown vec", resealEdit(t, valid, "vec z 5", "vec w 5")},
		{"non-canonical int", resealEdit(t, valid, "iter 17", "iter 017")},
		{"non-canonical float", resealEdit(t, valid, "guard 0x1p-01", "guard 0.5")},
		{"double space", resealEdit(t, valid, "method bp", "method  bp")},
		{"flag not 0|1", resealEdit(t, valid, "tracker 1 ", "tracker 2 ")},
		{"comment line", resealEdit(t, valid, "\nmethod", "\n# note\nmethod")},
		{"trailing bytes", reseal(append(append([]byte(nil), valid[:len(valid)-crc32.Size]...), 'x'))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCheckpoint(bytes.NewReader(tc.in)); err == nil {
				t.Fatalf("corrupt checkpoint accepted (%s)", tc.name)
			}
		})
	}
	t.Run("checksum before values", func(t *testing.T) {
		_, err := ReadCheckpoint(bytes.NewReader(flipped))
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flipped value bit: err = %v, want a checksum error", err)
		}
	})
	// Cut at every section boundary: the bare cut fails the checksum,
	// and the same cut resealed fails the structure behind it.
	t.Run("truncated at every boundary", func(t *testing.T) {
		for _, c := range []*core.Checkpoint{bpCheckpoint(), mrCheckpoint()} {
			enc := mustEncode(t, c)
			for _, k := range v2Boundaries(t, enc) {
				if k < len(enc) {
					if _, err := ReadCheckpoint(bytes.NewReader(enc[:k])); err == nil {
						t.Fatalf("%s cut at byte %d of %d accepted", c.Method, k, len(enc))
					}
				}
				if k < len(enc)-crc32.Size {
					if _, err := ReadCheckpoint(bytes.NewReader(reseal(enc[:k]))); err == nil {
						t.Fatalf("%s cut at byte %d of %d and resealed accepted", c.Method, k, len(enc))
					}
				}
			}
		}
	})
	// A fingerprint and vec line declaring 2^24 values (128 MiB) over a
	// body of two must be refused before anything that size is
	// allocated.
	t.Run("huge length tiny body", func(t *testing.T) {
		const huge = "16777216"
		in := resealEdit(t, valid, "problem 3 4 5 2 ", "problem 3 4 5 "+huge+" ")
		in = resealEdit(t, in, "vec sk 2\n", "vec sk "+huge+"\n")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCheckpoint(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("huge declared length accepted")
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Fatalf("rejecting a %d-byte input allocated %d bytes", len(in), d)
		}
	})
}

func FuzzReadCheckpoint(f *testing.F) {
	var bp, mr bytes.Buffer
	_ = writeCheckpointV1(&bp, bpCheckpoint())
	_ = writeCheckpointV1(&mr, mrCheckpoint())
	f.Add(bp.String())
	f.Add(mr.String())
	f.Add("netalign-checkpoint 1\nmethod bp\n")
	f.Add("")
	for _, c := range []*core.Checkpoint{bpCheckpoint(), mrCheckpoint()} {
		enc := mustEncode(f, c)
		f.Add(string(enc))
		f.Add(string(enc[:len(enc)-crc32.Size]))
	}
	f.Add(checkpointV2Magic + "method bp\n")
	f.Fuzz(func(t *testing.T, in string) {
		// A version-2 input is also tried resealed with a valid
		// checksum, so the fuzzer reaches the structure behind it.
		inputs := []string{in}
		if strings.HasPrefix(in, checkpointV2Magic) {
			inputs = append(inputs, string(reseal([]byte(in))))
		}
		for _, in := range inputs {
			c, err := ReadCheckpoint(strings.NewReader(in))
			if err != nil {
				continue
			}
			// Anything accepted must satisfy its own structural checks.
			if c.Method != "bp" && c.Method != "mr" {
				t.Fatalf("accepted method %q", c.Method)
			}
			if len(c.Y) != c.EL && c.Method == "bp" {
				t.Fatalf("accepted bp vec length %d != el %d", len(c.Y), c.EL)
			}
			// Accepted version-2 bytes are canonical: they re-encode to
			// themselves. Any accepted input converts to version 2 and
			// back without loss.
			enc := mustEncode(t, c)
			if strings.HasPrefix(in, checkpointV2Magic) && string(enc) != in {
				t.Fatalf("accepted version-2 input re-encodes differently:\n in %q\nout %q", in, enc)
			}
			back, err := ReadCheckpoint(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			compareCheckpoints(t, c, back)
		}
	})
}
