package core

import (
	"fmt"
	"strconv"
)

// CacheFingerprint renders the output-affecting subset of an Options
// value as a canonical string, for content-addressed result caching:
// two option sets with the same fingerprint, run on the same
// canonicalized problem, produce bit-identical AlignResults.
//
// Defaults are resolved before rendering (an unset iteration budget
// and an explicit 100 fingerprint identically), and fields that
// cannot change the output bits are excluded on purpose:
//
//   - Threads, Chunk: the dispatch layer. Chunk is only the
//     context-poll and task-chunk granularity, and thread counts agree
//     to float reduction order (TestThreadCountMatrix{BP,MR}).
//   - Workspace, Timer, Trace, Observer, CheckpointEvery,
//     CheckpointFunc: instrumentation and buffer reuse.
//
// The second return is false when the options are not cacheable at
// all: an armed fault injector, a warm start, or a resume checkpoint
// all make the run's output depend on state outside the (problem,
// fingerprint) pair.
//
// Problem-level inputs (alpha, beta, the graphs, generator seeds) are
// deliberately absent: the cache hashes the canonicalized problem
// bytes alongside this fingerprint, and those inputs are all baked
// into the bytes.
func (o Options) CacheFingerprint() (string, bool) {
	switch o.Method {
	case MethodMR:
		m := o.MR
		if m.Faults != nil || m.Resume != nil {
			return "", false
		}
		iters, gamma, mstep := m.Iterations, m.Gamma, m.MStep
		if iters <= 0 {
			iters = 100
		}
		if gamma <= 0 {
			gamma = 0.5
		}
		if mstep <= 0 {
			mstep = 10
		}
		return fmt.Sprintf("mr;iters=%d;gamma=%s;mstep=%d;ubound=%s;matcher=%s;greedyrow=%t;gaptol=%s;skipfinal=%t;guard=%s",
			iters, g(gamma), mstep, g(m.UBound), m.Matcher.String(),
			m.GreedyRowMatch, g(m.GapTolerance), m.SkipFinalExact, g(m.GuardLimit)), true
	case MethodBP:
		b := o.BP
		if b.Faults != nil || b.Resume != nil || b.WarmY != nil || b.WarmZ != nil {
			return "", false
		}
		iters, gamma, batch := b.Iterations, b.Gamma, b.Batch
		if iters <= 0 {
			iters = 100
		}
		if gamma <= 0 || gamma >= 1 {
			gamma = 0.99
		}
		if batch <= 0 {
			batch = 1
		}
		return fmt.Sprintf("bp;iters=%d;gamma=%s;damp=%s;batch=%d;matcher=%s;skipfinal=%t;guard=%s",
			iters, g(gamma), b.Damp.String(), batch, b.Matcher.String(),
			b.SkipFinalExact, g(b.GuardLimit)), true
	default:
		return "", false
	}
}

// g renders a float64 canonically (shortest round-trip form).
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
