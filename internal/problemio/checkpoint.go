package problemio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"netalignmc/internal/core"
	"netalignmc/internal/faults"
)

// Fault points of the atomic checkpoint write (see internal/faults):
// the payload write supports injected EIO/ENOSPC/short-writes, the
// rename supports injected errors. Registered here so chaos tests can
// enumerate them.
func init() {
	faults.RegisterWritePoint("checkpoint:write")
	faults.RegisterPoint("checkpoint:rename")
}

// Checkpoint serialization. The resume-is-bit-identical guarantee of
// the solvers rests on every float64 round-tripping bit for bit.
//
// Version 2 (written by WriteCheckpoint) keeps a few text header lines,
// so `head` shows what a file is, and stores the vectors as raw
// little-endian bits:
//
//	netalign-checkpoint 2
//	method bp|mr
//	iter <int>
//	problem <na> <nb> <el> <nnz> <alpha> <beta>
//	guard <tighten> <failures>
//	bp <gammak>                              (bp only)
//	mr <gamma> <bestupper> <haveupper 0|1> <sinceimproved>   (mr only)
//	tracker <hasbest 0|1> <bestiter> <evaluations> <bestobjective>
//	vec <name> <len>                         followed by 8·len bytes:
//	                                         math.Float64bits, little-endian
//	mates <len>                              followed by 8·len bytes:
//	                                         int64, little-endian
//	                                         (-1 = unmatched)
//	end
//	<CRC-32C (Castagnoli) of every byte above, 4 bytes little-endian>
//
// The vectors are y, z, sk (bp) or u (mr), then bestheur and mates
// when hasbest is 1. Header floats are in Go's hexadecimal notation
// ('x'), exact like the raw sections. Fields are separated by one
// space and every number must be spelled as the writer spells it, so
// an accepted file re-encodes to the same bytes. The checksum is
// verified before any value is used.
//
// Version 1 (still read) has the same header lines under
// "netalign-checkpoint 1", but is whitespace separated text throughout:
// '#' starts a comment line, vector values follow their vec line as
// hexadecimal floats eight per line, mates as decimal ints sixteen per
// line, and there is no checksum.
//
// Both readers reject unknown sections and vectors whose length
// disagrees with the problem fingerprint (a checkpoint is versioned
// state, not a lenient config file), non-finite values (the solvers
// only ever checkpoint guarded state, so a NaN in a checkpoint means
// the file is corrupt) and mates outside [-1, nb).

const checkpointV2Magic = "netalign-checkpoint 2\n"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteCheckpoint serializes a checkpoint in version 2 with one Write.
func WriteCheckpoint(w io.Writer, c *core.Checkpoint) error {
	buf, err := encodeCheckpoint(c)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// section is one raw float section: its "vec <name> <len>" line and
// its values.
type section struct {
	head string
	x    []float64
}

// checkpointSections lists the float sections of c in file order.
func checkpointSections(c *core.Checkpoint) []section {
	vec := func(name string, x []float64) section {
		return section{fmt.Sprintf("vec %s %d\n", name, len(x)), x}
	}
	var ss []section
	if c.Method == "bp" {
		ss = append(ss, vec("y", c.Y), vec("z", c.Z), vec("sk", c.SK))
	} else {
		ss = append(ss, vec("u", c.U))
	}
	if c.HasBest {
		ss = append(ss, vec("bestheur", c.BestHeuristic))
	}
	return ss
}

// encodeCheckpoint returns c's version-2 bytes in one buffer sized
// exactly from the vector lengths.
func encodeCheckpoint(c *core.Checkpoint) ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("problemio: nil checkpoint")
	}
	if c.Method != "bp" && c.Method != "mr" {
		return nil, fmt.Errorf("problemio: checkpoint method %q is not bp or mr", c.Method)
	}
	head := fmt.Appendf(nil, checkpointV2Magic+"method %s\niter %d\nproblem %d %d %d %d %s %s\nguard %s %d\n",
		c.Method, c.Iter, c.NA, c.NB, c.EL, c.NNZ, fmtFloat(c.Alpha), fmtFloat(c.Beta), fmtFloat(c.Tighten), c.Failures)
	if c.Method == "bp" {
		head = fmt.Appendf(head, "bp %s\n", fmtFloat(c.GammaK))
	} else {
		head = fmt.Appendf(head, "mr %s %s %d %d\n", fmtFloat(c.Gamma), fmtFloat(c.BestUpper), b2i(c.HaveUpper), c.SinceImproved)
	}
	head = fmt.Appendf(head, "tracker %d %d %d %s\n", b2i(c.HasBest), c.BestIter, c.Evaluations, fmtFloat(c.BestObjective))
	sections := checkpointSections(c)
	var mates string
	size := len(head) + len("end\n") + crc32.Size
	for _, s := range sections {
		size += len(s.head) + 8*len(s.x)
	}
	if c.HasBest {
		mates = fmt.Sprintf("mates %d\n", len(c.BestMateA))
		size += len(mates) + 8*len(c.BestMateA)
	}

	buf := make([]byte, 0, size)
	buf = append(buf, head...)
	for _, s := range sections {
		buf = append(buf, s.head...)
		off := len(buf)
		buf = buf[:off+8*len(s.x)]
		for i, x := range s.x {
			binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(x))
		}
	}
	if c.HasBest {
		buf = append(buf, mates...)
		off := len(buf)
		buf = buf[:off+8*len(c.BestMateA)]
		for i, m := range c.BestMateA {
			binary.LittleEndian.PutUint64(buf[off+8*i:], uint64(int64(m)))
		}
	}
	buf = append(buf, "end\n"...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// ReadCheckpoint parses a checkpoint of either version.
func ReadCheckpoint(r io.Reader) (*core.Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("problemio: checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}

// decodeCheckpoint dispatches on the version line.
func decodeCheckpoint(data []byte) (*core.Checkpoint, error) {
	if bytes.HasPrefix(data, []byte(checkpointV2Magic)) {
		return decodeCheckpointV2(data)
	}
	return readCheckpointV1(bytes.NewReader(data))
}

// v2Decoder walks a version-2 body whose checksum has been verified.
// The first error sticks: every later call returns zero values, so a
// parse reads straight through and checks err once at the end.
type v2Decoder struct {
	b   []byte
	off int
	err error
}

func (d *v2Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("problemio: checkpoint: "+format, args...)
	}
}

// fields consumes the next header line, which must be key followed by
// exactly n single-space separated fields, and returns the n fields.
func (d *v2Decoder) fields(key string, n int) []string {
	if d.err == nil {
		i := bytes.IndexByte(d.b[d.off:], '\n')
		if i < 0 {
			d.fail("byte %d: truncated before the %q line", d.off, key)
		} else if f := strings.Split(string(d.b[d.off:d.off+i]), " "); f[0] != key || len(f) != n+1 {
			d.fail("byte %d: expected a %q line with %d fields, got %q", d.off, key, n, d.b[d.off:d.off+i])
		} else {
			d.off += i + 1
			return f[1:]
		}
	}
	return make([]string, n)
}

// int parses a decimal int spelled as strconv.Itoa spells it.
func (d *v2Decoder) int(what, tok string) int {
	v, err := strconv.Atoi(tok)
	if err != nil || strconv.Itoa(v) != tok {
		d.fail("bad %s %q", what, tok)
		return 0
	}
	return v
}

// size parses a non-negative int.
func (d *v2Decoder) size(what, tok string) int {
	v := d.int(what, tok)
	if v < 0 {
		d.fail("negative %s %d", what, v)
		return 0
	}
	return v
}

// flag parses a 0|1 flag.
func (d *v2Decoder) flag(what, tok string) bool {
	if tok != "0" && tok != "1" {
		d.fail("bad %s %q", what, tok)
	}
	return tok == "1"
}

// float parses a finite float spelled in the writer's hexadecimal
// notation.
func (d *v2Decoder) float(what, tok string) float64 {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || fmtFloat(v) != tok {
		d.fail("bad %s %q", what, tok)
		return 0
	}
	return v
}

// raw consumes the 8·want bytes after a section line that declared n
// values. The length is checked against want and against the bytes
// actually present before the caller allocates anything.
func (d *v2Decoder) raw(what string, n, want int) []byte {
	switch {
	case d.err != nil:
		return nil
	case n != want:
		d.fail("%s length %d, want %d", what, n, want)
		return nil
	case want > (len(d.b)-d.off)/8:
		d.fail("%s: %d values declared, %d bytes left", what, want, len(d.b)-d.off)
		return nil
	}
	raw := d.b[d.off : d.off+8*want]
	d.off += 8 * want
	return raw
}

// vec consumes a "vec <name> <len>" section of want finite values.
func (d *v2Decoder) vec(name string, want int) []float64 {
	f := d.fields("vec", 2)
	if d.err == nil && f[0] != name {
		d.fail("expected vec %s, got vec %s", name, f[0])
	}
	raw := d.raw("vec "+name, d.size("vec "+name+" length", f[1]), want)
	if raw == nil {
		return nil
	}
	v := make([]float64, want)
	for i := range v {
		x := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			d.fail("vec %s[%d] is not finite", name, i)
			return nil
		}
		v[i] = x
	}
	return v
}

// mates consumes the "mates <len>" section: na matches in [-1, nb).
func (d *v2Decoder) mates(na, nb int) []int {
	raw := d.raw("mates", d.size("mates length", d.fields("mates", 1)[0]), na)
	if raw == nil {
		return nil
	}
	mates := make([]int, na)
	for i := range mates {
		m := int64(binary.LittleEndian.Uint64(raw[8*i:]))
		if m < -1 || m >= int64(nb) {
			d.fail("mate %d out of range [-1,%d)", m, nb)
			return nil
		}
		mates[i] = int(m)
	}
	return mates
}

// decodeCheckpointV2 parses a whole version-2 file.
func decodeCheckpointV2(data []byte) (*core.Checkpoint, error) {
	if len(data) < len(checkpointV2Magic)+crc32.Size {
		return nil, fmt.Errorf("problemio: checkpoint: truncated (%d bytes)", len(data))
	}
	body := data[:len(data)-crc32.Size]
	if sum := binary.LittleEndian.Uint32(data[len(body):]); crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("problemio: checkpoint: checksum mismatch (corrupt or truncated file)")
	}
	d := &v2Decoder{b: body, off: len(checkpointV2Magic)}
	c := &core.Checkpoint{Method: d.fields("method", 1)[0]}
	if d.err == nil && c.Method != "bp" && c.Method != "mr" {
		d.fail("unknown method %q", c.Method)
	}
	c.Iter = d.size("iteration", d.fields("iter", 1)[0])
	f := d.fields("problem", 6)
	c.NA, c.NB, c.EL, c.NNZ = d.size("na", f[0]), d.size("nb", f[1]), d.size("el", f[2]), d.size("nnz", f[3])
	c.Alpha, c.Beta = d.float("alpha", f[4]), d.float("beta", f[5])
	f = d.fields("guard", 2)
	c.Tighten, c.Failures = d.float("tighten", f[0]), d.int("failures", f[1])
	if c.Method == "bp" {
		c.GammaK = d.float("gammak", d.fields("bp", 1)[0])
	} else {
		f = d.fields("mr", 4)
		c.Gamma, c.BestUpper = d.float("gamma", f[0]), d.float("bestupper", f[1])
		c.HaveUpper, c.SinceImproved = d.flag("haveupper", f[2]), d.int("sinceimproved", f[3])
	}
	f = d.fields("tracker", 4)
	c.HasBest, c.BestIter = d.flag("hasbest", f[0]), d.int("bestiter", f[1])
	c.Evaluations, c.BestObjective = d.int("evaluations", f[2]), d.float("bestobjective", f[3])
	if c.Method == "bp" {
		c.Y, c.Z, c.SK = d.vec("y", c.EL), d.vec("z", c.EL), d.vec("sk", c.NNZ)
	} else {
		c.U = d.vec("u", c.NNZ)
	}
	if c.HasBest {
		c.BestHeuristic = d.vec("bestheur", c.EL)
		c.BestMateA = d.mates(c.NA, c.NB)
	}
	d.fields("end", 0)
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d unexpected bytes after end", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return c, nil
}

// readCheckpointV1 parses a version-1 text checkpoint.
func readCheckpointV1(r io.Reader) (*core.Checkpoint, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	lineNum := 0
	// tokens yields whitespace-separated fields across lines, so
	// vectors can be parsed value by value regardless of wrapping.
	var queue []string
	nextLine := func() ([]string, bool) {
		for sc.Scan() {
			lineNum++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return strings.Fields(s), true
		}
		return nil, false
	}
	nextTok := func() (string, error) {
		for len(queue) == 0 {
			f, ok := nextLine()
			if !ok {
				return "", fmt.Errorf("problemio: checkpoint: line %d: unexpected end of input (%v)", lineNum, sc.Err())
			}
			queue = f
		}
		t := queue[0]
		queue = queue[1:]
		return t, nil
	}
	parseInt := func(what string) (int, error) {
		t, err := nextTok()
		if err != nil {
			return 0, err
		}
		v, err := strconv.Atoi(t)
		if err != nil {
			return 0, fmt.Errorf("problemio: checkpoint: line %d: bad %s %q", lineNum, what, t)
		}
		return v, nil
	}
	parseFloat := func(what string) (float64, error) {
		t, err := nextTok()
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("problemio: checkpoint: line %d: bad %s %q", lineNum, what, t)
		}
		return v, nil
	}
	expect := func(word string) error {
		t, err := nextTok()
		if err != nil {
			return err
		}
		if t != word {
			return fmt.Errorf("problemio: checkpoint: line %d: expected %q, got %q", lineNum, word, t)
		}
		return nil
	}
	parseVec := func(name string, want int) ([]float64, error) {
		if err := expect("vec"); err != nil {
			return nil, err
		}
		if err := expect(name); err != nil {
			return nil, err
		}
		n, err := parseInt("vector length")
		if err != nil {
			return nil, err
		}
		if n < 0 || (want >= 0 && n != want) {
			return nil, fmt.Errorf("problemio: checkpoint: line %d: vec %s length %d, want %d", lineNum, name, n, want)
		}
		// Cap preallocation: a hostile length must not force a huge
		// allocation before any value has been parsed.
		prealloc := n
		if prealloc > 1<<20 {
			prealloc = 1 << 20
		}
		v := make([]float64, 0, prealloc)
		for i := 0; i < n; i++ {
			x, err := parseFloat(name + " value")
			if err != nil {
				return nil, err
			}
			v = append(v, x)
		}
		return v, nil
	}

	if err := expect("netalign-checkpoint"); err != nil {
		return nil, err
	}
	if err := expect("1"); err != nil {
		return nil, err
	}
	c := &core.Checkpoint{}
	if err := expect("method"); err != nil {
		return nil, err
	}
	m, err := nextTok()
	if err != nil {
		return nil, err
	}
	if m != "bp" && m != "mr" {
		return nil, fmt.Errorf("problemio: checkpoint: line %d: unknown method %q", lineNum, m)
	}
	c.Method = m
	if err := expect("iter"); err != nil {
		return nil, err
	}
	if c.Iter, err = parseInt("iter"); err != nil {
		return nil, err
	}
	if c.Iter < 0 {
		return nil, fmt.Errorf("problemio: checkpoint: negative iteration %d", c.Iter)
	}
	if err := expect("problem"); err != nil {
		return nil, err
	}
	if c.NA, err = parseInt("na"); err != nil {
		return nil, err
	}
	if c.NB, err = parseInt("nb"); err != nil {
		return nil, err
	}
	if c.EL, err = parseInt("el"); err != nil {
		return nil, err
	}
	if c.NNZ, err = parseInt("nnz"); err != nil {
		return nil, err
	}
	if c.NA < 0 || c.NB < 0 || c.EL < 0 || c.NNZ < 0 {
		return nil, fmt.Errorf("problemio: checkpoint: negative problem sizes %d %d %d %d", c.NA, c.NB, c.EL, c.NNZ)
	}
	if c.Alpha, err = parseFloat("alpha"); err != nil {
		return nil, err
	}
	if c.Beta, err = parseFloat("beta"); err != nil {
		return nil, err
	}
	if err := expect("guard"); err != nil {
		return nil, err
	}
	if c.Tighten, err = parseFloat("tighten"); err != nil {
		return nil, err
	}
	if c.Failures, err = parseInt("failures"); err != nil {
		return nil, err
	}
	if c.Method == "bp" {
		if err := expect("bp"); err != nil {
			return nil, err
		}
		if c.GammaK, err = parseFloat("gammak"); err != nil {
			return nil, err
		}
	} else {
		if err := expect("mr"); err != nil {
			return nil, err
		}
		if c.Gamma, err = parseFloat("gamma"); err != nil {
			return nil, err
		}
		if c.BestUpper, err = parseFloat("bestupper"); err != nil {
			return nil, err
		}
		have, err := parseInt("haveupper")
		if err != nil {
			return nil, err
		}
		c.HaveUpper = have != 0
		if c.SinceImproved, err = parseInt("sinceimproved"); err != nil {
			return nil, err
		}
	}
	if err := expect("tracker"); err != nil {
		return nil, err
	}
	has, err := parseInt("hasbest")
	if err != nil {
		return nil, err
	}
	c.HasBest = has != 0
	if c.BestIter, err = parseInt("bestiter"); err != nil {
		return nil, err
	}
	if c.Evaluations, err = parseInt("evaluations"); err != nil {
		return nil, err
	}
	if c.BestObjective, err = parseFloat("bestobjective"); err != nil {
		return nil, err
	}
	if c.Method == "bp" {
		if c.Y, err = parseVec("y", c.EL); err != nil {
			return nil, err
		}
		if c.Z, err = parseVec("z", c.EL); err != nil {
			return nil, err
		}
		if c.SK, err = parseVec("sk", c.NNZ); err != nil {
			return nil, err
		}
	} else {
		if c.U, err = parseVec("u", c.NNZ); err != nil {
			return nil, err
		}
	}
	if c.HasBest {
		if c.BestHeuristic, err = parseVec("bestheur", c.EL); err != nil {
			return nil, err
		}
		if err := expect("mates"); err != nil {
			return nil, err
		}
		n, err := parseInt("mates length")
		if err != nil {
			return nil, err
		}
		if n != c.NA {
			return nil, fmt.Errorf("problemio: checkpoint: mates length %d, want na=%d", n, c.NA)
		}
		prealloc := n
		if prealloc > 1<<20 {
			prealloc = 1 << 20
		}
		c.BestMateA = make([]int, 0, prealloc)
		for i := 0; i < n; i++ {
			m, err := parseInt("mate")
			if err != nil {
				return nil, err
			}
			if m < -1 || m >= c.NB {
				return nil, fmt.Errorf("problemio: checkpoint: mate %d out of range [-1,%d)", m, c.NB)
			}
			c.BestMateA = append(c.BestMateA, m)
		}
	}
	if err := expect("end"); err != nil {
		return nil, err
	}
	return c, nil
}

// SyncDir fsyncs a directory, making a preceding rename inside it
// durable. Atomic write paths (checkpoint, spool, cache) must call it
// after os.Rename: the rename itself only reaches the disk when the
// parent directory's metadata does, so a crash in between can roll
// the directory back to the old entry — or leave neither — even
// though the file's own contents were synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteCheckpointFile writes a checkpoint atomically: to a temporary
// file in the destination directory, synced, then renamed into place
// (with a parent-directory fsync), so an interrupted run never leaves
// a truncated checkpoint behind and a completed rename survives a
// crash. The checkpoint is serialized to memory first and written
// through the "checkpoint:write" fault point, so chaos tests can tear
// the write; a failure at any step leaves the previously renamed
// checkpoint untouched and valid.
func WriteCheckpointFile(path string, c *core.Checkpoint) error {
	buf, err := encodeCheckpoint(c)
	if err != nil {
		return err
	}
	dir, base := ".", path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		dir, base = path[:i], path[i+1:]
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("problemio: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := faults.WriteOp("checkpoint:write", tmp, buf); err != nil {
		tmp.Close()
		return fmt.Errorf("problemio: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("problemio: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("problemio: checkpoint close: %w", err)
	}
	if err := faults.Inject("checkpoint:rename"); err != nil {
		return fmt.Errorf("problemio: checkpoint rename: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("problemio: checkpoint rename: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("problemio: checkpoint dir sync: %w", err)
	}
	return nil
}

// ReadCheckpointFile reads a checkpoint from a file.
func ReadCheckpointFile(path string) (*core.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("problemio: checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}
