package matching

import (
	"math"
	"runtime"
	"sync/atomic"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/parallel"
)

// Suitor computes a half-approximate maximum-weight matching with the
// Suitor algorithm (Manne and Halappanavar), the successor to the
// locally-dominant algorithm from the same research program as the
// paper. Specialized to bipartite graphs, only V_A vertices propose:
// each proposes to the heaviest neighbor whose standing offer it can
// beat; a dethroned suitor immediately re-proposes elsewhere. This is
// weighted deferred acceptance; with the strict (weight, proposer id)
// order it computes exactly the greedy matching, hence weight ≥
// ½·optimum and maximality over positive-weight edges.
//
// Concurrency: each V_B vertex's (suitor, offer) pair is guarded by a
// per-vertex spinlock; the racy pre-scan is re-verified under the
// lock. Offers strictly increase in the (weight, proposer) order, so
// the number of successful proposals is bounded and the algorithm
// terminates.
func Suitor(g *bipartite.Graph, threads int) *Result {
	return SuitorInto(g, threads, nil, nil)
}

// Approx is the default approximate Matcher, the one the "approx" spec
// names: Suitor. The paper rounds with the locally-dominant algorithm
// with one-sided initialization; both compute the unique greedy
// matching under the strict (weight, vertex id) order, so Approx
// returns that matcher's matching, Weight and Card bit for bit at any
// thread count, and costs less. The paper's matcher stays available as
// the locally-dominant(onesided=true) spec.
func Approx(g *bipartite.Graph, threads int) *Result {
	return Suitor(g, threads)
}

// SuitorScratch holds the reusable state of Suitor runs, making
// successive SuitorInto calls on graphs of stable size allocation-free.
// A scratch serves one matcher call at a time.
type SuitorScratch struct {
	st suitorState
}

// SuitorInto is Suitor with buffer reuse: scratch provides the
// algorithm state (nil allocates fresh state) and the matching is
// written into out (nil allocates a fresh Result). At one thread the
// proposal loop runs serially with no goroutines or closures.
func SuitorInto(g *bipartite.Graph, threads int, scratch *SuitorScratch, out *Result) *Result {
	if scratch == nil {
		scratch = &SuitorScratch{}
	}
	st := &scratch.st
	st.g = g
	st.suitor = growInt32(st.suitor, g.NB)
	st.offerW = growUint64(st.offerW, g.NB)
	st.lock = growInt32(st.lock, g.NB)
	for i := range st.suitor {
		st.suitor[i] = -1
		st.offerW[i] = 0
		st.lock[i] = 0
	}
	p := parallel.Threads(threads)
	if p == 1 {
		for a := 0; a < g.NA; a++ {
			st.propose(int32(a))
		}
	} else {
		// Partition the proposers by incident-edge count rather than
		// vertex count: proposal cost is dominated by the neighborhood
		// scans, and L's degree distribution makes an equal vertex
		// split uneven. The offsets are derived from L's row pointer in
		// O(p log n) and cached in the scratch.
		if st.proposeBody == nil {
			st.proposeBody = func(lo, hi int) {
				for a := lo; a < hi; a++ {
					st.propose(int32(a))
				}
			}
		}
		st.parts = parallel.BalancedOffsetsFromPtr(g.RowPtr, p, st.parts)
		parallel.ForOffsets(st.parts, st.proposeBody)
	}

	if out == nil {
		out = &Result{}
	}
	out.Reset(g)
	for b := 0; b < g.NB; b++ {
		// Each V_A vertex stands as suitor of at most one V_B vertex,
		// so reading suitor[b] directly yields a matching.
		if a := st.suitor[b]; a >= 0 {
			out.MateA[a] = b
			out.MateB[b] = int(a)
		}
	}
	// Total in V_A order, as LocallyDominantInto does, so the two
	// matchers' equal matchings also carry equal Weight bits. Every
	// suitor proposed along an edge, so Find always succeeds.
	for a, b := range out.MateA {
		if b < 0 {
			continue
		}
		e, _ := g.Find(a, b)
		out.Weight += g.W[e]
		out.Card++
	}
	return out
}

type suitorState struct {
	g      *bipartite.Graph
	suitor []int32  // standing proposer of each V_B vertex, -1 none
	offerW []uint64 // float64 bits of that proposal's weight
	lock   []int32  // per-vertex spinlocks

	// parts caches the nnz-balanced proposer partition; proposeBody is
	// the hoisted parallel loop body (built once per state so repeat
	// calls allocate no closures).
	parts       []int
	proposeBody func(lo, hi int)
}

func (st *suitorState) lockVertex(b int32) {
	for !atomic.CompareAndSwapInt32(&st.lock[b], 0, 1) {
		runtime.Gosched()
	}
}

func (st *suitorState) unlockVertex(b int32) {
	atomic.StoreInt32(&st.lock[b], 0)
}

func (st *suitorState) offer(b int32) (float64, int32) {
	w := math.Float64frombits(atomic.LoadUint64(&st.offerW[b]))
	s := atomic.LoadInt32(&st.suitor[b])
	return w, s
}

// beats reports whether a proposal (w, proposer) beats the standing
// proposal (curW, curSuitor), with proposer id breaking weight ties so
// the order is strict and the algorithm terminates.
func beats(w float64, proposer int32, curW float64, curSuitor int32) bool {
	if w != curW {
		return w > curW
	}
	return proposer > curSuitor
}

// propose runs the suitor chain starting at V_A vertex a: a proposes
// to the best V_B neighbor it can beat; if that dethrones a previous
// suitor the chain continues from the dethroned vertex.
func (st *suitorState) propose(a int32) {
	g := st.g
	current := a
	for {
		var best int32 = -1
		bestW := 0.0
		lo, hi := g.RowRange(int(current))
		for e := lo; e < hi; e++ {
			w := g.W[e]
			if w <= 0 {
				continue
			}
			b := int32(g.EdgeB[e])
			curW, curS := st.offer(b)
			if !beats(w, current, curW, curS) {
				continue
			}
			if w > bestW || (w == bestW && b > best) {
				bestW = w
				best = b
			}
		}
		if best < 0 {
			return // nobody left to propose to
		}
		st.lockVertex(best)
		curW, curS := st.offer(best)
		if beats(bestW, current, curW, curS) {
			atomic.StoreInt32(&st.suitor[best], current)
			atomic.StoreUint64(&st.offerW[best], math.Float64bits(bestW))
			st.unlockVertex(best)
			if curS < 0 {
				return
			}
			current = curS // the dethroned suitor re-proposes
		} else {
			// Lost the race for this partner; rescan for another.
			st.unlockVertex(best)
		}
	}
}
