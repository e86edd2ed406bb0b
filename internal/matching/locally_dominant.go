package matching

import (
	"runtime"
	"sync/atomic"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/parallel"
)

// LocallyDominantOptions configures the parallel half-approximate
// matcher.
type LocallyDominantOptions struct {
	// OneSidedInit enables the bipartite-tailored initialization from
	// the end of Section V: Phase 1 spawns work only from the V_A
	// vertex set; a V_A vertex determines local dominance by scanning
	// the adjacency of its candidate V_B vertex directly. V_B
	// candidates are initialized lazily during Phase 2. The paper
	// found this "noticeably improved the speed of the algorithm".
	OneSidedInit bool
	// SortedAdjacency precomputes, per vertex, its incident edges in
	// decreasing (weight, neighbor id) order so FINDMATE returns the
	// first unmatched entry instead of scanning the whole list — the
	// paper: "If the neighbor list is maintained in a sorted order,
	// this step can be done in constant time." The sort costs
	// O(E log d) once per call; it pays off when Phase 2 re-runs
	// FINDMATE many times (dense or highly contended graphs).
	SortedAdjacency bool
	// Chunk is the dynamic-schedule chunk size for the parallel loops
	// (0 means parallel.DefaultChunk).
	Chunk int
	// Stats, when non-nil, receives the run's queue dynamics.
	Stats *LDStats
}

// LDStats records the Phase-2 queue dynamics of one LocallyDominant
// run. The paper: "The size of Q_C determines the amount of work that
// can be done in parallel... the size decreases roughly by half after
// each iteration... The parallel time complexity of our implementation
// is determined by the number of iterations of the while loop
// (expected to be O(log |V|) if the size decreases by a constant in
// each iteration)."
type LDStats struct {
	// QueueSizes[r] is |Q_C| entering round r of Phase 2 (the Phase-1
	// output queue is round 0's input).
	QueueSizes []int
	// Rounds is the number of Phase-2 iterations executed.
	Rounds int
}

// LocallyDominant computes a half-approximate maximum-weight matching
// with the parallel locally-dominant algorithm (Preis; Manne and
// Bisseling; multicore version of Halappanavar et al.) — Algorithms
// 1–3 of the paper. The bipartite graph is treated as a general graph
// over V = V_A ∪ V_B (the paper: "we provide a bipartite graph as a
// general graph to the algorithm by not making a distinction between
// the two sets of vertices").
//
// Phase 1 computes, for every vertex in parallel, a candidate: its
// heaviest unmatched neighbor (FINDMATE), then matches every locally
// dominant edge — one whose endpoints point at each other
// (MATCHVERTEX). Matched vertices enter a queue. Phase 2 repeatedly
// processes the queue: when u is matched, every neighbor v whose
// candidate was u recomputes its candidate and re-tests dominance;
// newly matched vertices enter the next round's queue. Each worker
// appends to its own local queue — no shared counter, no contention —
// and the locals are merged into the next round's work list by
// prefix-sum compaction at the round barrier. Candidate/mate words are
// accessed with sequentially consistent atomics and matches are
// claimed with compare-and-swap so concurrent discoveries of
// overlapping pairs resolve safely; the matching itself is the unique
// greedy matching under (weight, id) dominance, so the merge order of
// the local queues cannot change the result.
func LocallyDominant(g *bipartite.Graph, threads int, opts LocallyDominantOptions) *Result {
	return LocallyDominantInto(g, threads, opts, nil, nil)
}

// LocallyDominantScratch holds the reusable state of LocallyDominant
// runs. Handing the same scratch to successive LocallyDominantInto
// calls on graphs of stable size makes the matcher allocation-free
// after the first call. A scratch serves one matcher call at a time:
// it must not be shared between concurrent calls.
type LocallyDominantScratch struct {
	st ldState
}

// LocallyDominantInto is LocallyDominant with buffer reuse: scratch
// provides the algorithm state (nil allocates fresh state) and the
// matching is written into out (nil allocates a fresh Result). At one
// thread the phases run as plain serial loops — no goroutines, no
// closures — which is what makes the solvers' steady-state rounding
// step allocation-free.
func LocallyDominantInto(g *bipartite.Graph, threads int, opts LocallyDominantOptions, scratch *LocallyDominantScratch, out *Result) *Result {
	if scratch == nil {
		scratch = &LocallyDominantScratch{}
	}
	st := &scratch.st
	st.prepare(g)
	p := parallel.Threads(threads)
	st.ensureLocal(p)
	if opts.SortedAdjacency {
		st.buildSortedAdjacency(p)
	} else {
		st.sortedPtr = st.sortedPtr[:0]
	}
	n := g.NA + g.NB // combined vertex space: V_A then V_B
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = parallel.DefaultChunk
	}
	// Small graphs: chunking at 1000 would serialize everything; let
	// the scheduler split finer when there is little work per vertex.
	if chunk > 1 && n/chunk < p {
		chunk = n/(2*p) + 1
	}

	// Phase 1.
	switch {
	case opts.OneSidedInit && p == 1:
		for a := 0; a < g.NA; a++ {
			st.processVertex(0, int32(a))
		}
	case opts.OneSidedInit:
		// Spawn only from V_A: compute a's candidate and test
		// dominance by scanning the candidate's adjacency directly.
		// Worker-id dispatch routes enqueues to per-worker queues.
		parallel.ForDynamicWorker(g.NA, p, chunk, st.phase1OneSided)
	case p == 1:
		for v := 0; v < n; v++ {
			st.setCandidate(int32(v), st.findMate(int32(v)))
		}
		for v := 0; v < n; v++ {
			st.processVertex(0, int32(v))
		}
	default:
		parallel.ForDynamic(n, p, chunk, st.phase1Cand)
		parallel.ForDynamicWorker(n, p, chunk, st.phase1Proc)
	}

	// Phase 1 enqueued the newly matched vertices into the per-worker
	// queues; merge them into the current work list (the paper's
	// Q_C ← Q_N swap, here a compaction of the worker locals).
	st.promoteQueue()

	// Phase 2: drain rounds until no new matches occur. Workers append
	// follow-up vertices to their local queues; the barrier between
	// rounds merges them.
	for len(st.qCur) > 0 {
		if opts.Stats != nil {
			opts.Stats.QueueSizes = append(opts.Stats.QueueSizes, len(st.qCur))
			opts.Stats.Rounds++
		}
		if p == 1 {
			for _, u := range st.qCur {
				st.processNeighbors(0, u)
			}
		} else {
			parallel.ForDynamicWorker(len(st.qCur), p, chunk, st.phase2Body)
		}
		st.promoteQueue()
	}

	if out == nil {
		out = &Result{}
	}
	out.Reset(g)
	for a := 0; a < g.NA; a++ {
		m := st.mate[a]
		if m < 0 {
			continue
		}
		b := int(m) - g.NA
		e, ok := g.Find(a, b)
		if !ok {
			continue
		}
		out.MateA[a] = b
		out.MateB[b] = a
		out.Weight += g.W[e]
		out.Card++
	}
	return out
}

// processNeighbors re-examines u's neighbors after u was matched: any
// unmatched neighbor whose candidate was u (or is still unset) must
// recompute its candidate and re-test dominance. w is the calling
// worker's id, routing enqueues to its local queue.
func (st *ldState) processNeighbors(w int, u int32) {
	g := st.g
	if int(u) < g.NA {
		lo, hi := g.RowRange(int(u))
		for e := lo; e < hi; e++ {
			st.maybeReprocess(w, u, int32(g.NA+g.EdgeB[e]))
		}
		return
	}
	for _, e := range g.ColEdgesOf(int(u) - g.NA) {
		st.maybeReprocess(w, u, int32(g.EdgeA[e]))
	}
}

func (st *ldState) maybeReprocess(w int, u, v int32) {
	if atomic.LoadInt32(&st.mate[v]) != -1 {
		return
	}
	c := atomic.LoadInt32(&st.candidate[v])
	if c == u || c == ldUnset {
		st.processVertex(w, v)
	}
}

// NewLocallyDominantMatcher adapts LocallyDominant to the Matcher
// function type with fixed options.
func NewLocallyDominantMatcher(opts LocallyDominantOptions) Matcher {
	return func(g *bipartite.Graph, threads int) *Result {
		return LocallyDominant(g, threads, opts)
	}
}

// ldState is the shared state of one LocallyDominant run. Vertices are
// numbered over the combined space: a ∈ V_A is vertex a; b ∈ V_B is
// vertex NA+b.
type ldState struct {
	g         *bipartite.Graph
	mate      []int32 // -1 unmatched, else partner vertex id
	candidate []int32 // -2 unset, -1 no unmatched neighbor, else vertex id
	queued    []int32 // 0/1 dedup flags for queue membership
	lock      []int32 // per-vertex spinlocks guarding match commits
	qCur      []int32
	// local[w] is worker w's private next-round queue; promoteQueue
	// compacts the locals into qCur at each round barrier. The `queued`
	// CAS flags guarantee each vertex enters at most one local queue
	// per run, so the locals together never exceed n entries.
	local [][]int32

	// Hoisted loop bodies for the parallel phases: handing a fresh
	// closure to every For* call would heap-allocate per round; these
	// are built once per state and read st's current fields at call
	// time.
	phase1OneSided func(w, lo, hi int)
	phase1Cand     func(lo, hi int)
	phase1Proc     func(w, lo, hi int)
	phase2Body     func(w, lo, hi int)

	// Sorted-adjacency acceleration (optional): per combined vertex,
	// the incident (neighbor, weight) pairs in decreasing (weight, id)
	// order, laid out contiguously with a pointer array.
	sortedPtr []int
	sortedNbr []int32
	sortedW   []float64
}

// prepare points the state at g and (re)initializes every array,
// reusing capacity from previous runs.
func (st *ldState) prepare(g *bipartite.Graph) {
	n := g.NA + g.NB
	st.g = g
	st.mate = growInt32(st.mate, n)
	st.candidate = growInt32(st.candidate, n)
	st.queued = growInt32(st.queued, n)
	st.lock = growInt32(st.lock, n)
	if cap(st.qCur) < n {
		st.qCur = make([]int32, 0, n)
	} else {
		st.qCur = st.qCur[:0]
	}
	for i := 0; i < n; i++ {
		st.mate[i] = -1
		st.candidate[i] = ldUnset
		st.queued[i] = 0
		st.lock[i] = 0
	}
	if st.phase2Body == nil {
		st.phase1OneSided = func(w, lo, hi int) {
			for a := lo; a < hi; a++ {
				st.processVertex(w, int32(a))
			}
		}
		st.phase1Cand = func(lo, hi int) {
			for v := lo; v < hi; v++ {
				st.setCandidate(int32(v), st.findMate(int32(v)))
			}
		}
		st.phase1Proc = func(w, lo, hi int) {
			for v := lo; v < hi; v++ {
				st.processVertex(w, int32(v))
			}
		}
		st.phase2Body = func(w, lo, hi int) {
			cur := st.qCur
			for qi := lo; qi < hi; qi++ {
				st.processNeighbors(w, cur[qi])
			}
		}
	}
}

// ensureLocal sizes the per-worker queue headers for p workers (worker
// ids from ForDynamicWorker are always below the thread count) and
// resets their lengths, keeping capacity from previous runs.
func (st *ldState) ensureLocal(p int) {
	for len(st.local) < p {
		st.local = append(st.local, nil)
	}
	for w := range st.local {
		st.local[w] = st.local[w][:0]
	}
}

// buildSortedAdjacency materializes the per-vertex sorted incidence
// lists.
func (st *ldState) buildSortedAdjacency(threads int) {
	g := st.g
	n := g.NA + g.NB
	st.sortedPtr = growInts(st.sortedPtr, n+1)
	st.sortedPtr[0] = 0
	for a := 0; a < g.NA; a++ {
		st.sortedPtr[a+1] = st.sortedPtr[a] + g.DegreeA(a)
	}
	for b := 0; b < g.NB; b++ {
		st.sortedPtr[g.NA+b+1] = st.sortedPtr[g.NA+b] + g.DegreeB(b)
	}
	total := st.sortedPtr[n]
	st.sortedNbr = growInt32(st.sortedNbr, total)
	st.sortedW = growFloats(st.sortedW, total)
	parallel.ForDynamic(n, threads, 64, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			base := st.sortedPtr[v]
			k := base
			if v < g.NA {
				elo, ehi := g.RowRange(v)
				for e := elo; e < ehi; e++ {
					st.sortedNbr[k] = int32(g.NA + g.EdgeB[e])
					st.sortedW[k] = g.W[e]
					k++
				}
			} else {
				for _, e := range g.ColEdgesOf(v - g.NA) {
					st.sortedNbr[k] = int32(g.EdgeA[e])
					st.sortedW[k] = g.W[e]
					k++
				}
			}
			// Insertion sort by (weight desc, id desc): incidence
			// lists are short in the sparse L graphs this is for.
			for i := base + 1; i < k; i++ {
				nb, w := st.sortedNbr[i], st.sortedW[i]
				j := i - 1
				for j >= base && (st.sortedW[j] < w || (st.sortedW[j] == w && st.sortedNbr[j] < nb)) {
					st.sortedNbr[j+1], st.sortedW[j+1] = st.sortedNbr[j], st.sortedW[j]
					j--
				}
				st.sortedNbr[j+1], st.sortedW[j+1] = nb, w
			}
		}
	})
}

const ldUnset = int32(-2)

// findMate scans the neighborhood of s for its heaviest unmatched
// neighbor with positive weight (Algorithm 2). Ties are broken by the
// larger vertex id so all threads agree on dominance.
func (st *ldState) findMate(s int32) int32 {
	if len(st.sortedPtr) > 0 {
		// Sorted incidence: the first unmatched entry is the answer.
		for k := st.sortedPtr[s]; k < st.sortedPtr[s+1]; k++ {
			if st.sortedW[k] <= 0 {
				return -1 // remaining entries are no better
			}
			t := st.sortedNbr[k]
			if atomic.LoadInt32(&st.mate[t]) == -1 {
				return t
			}
		}
		return -1
	}
	g := st.g
	best := int32(-1)
	bestW := 0.0
	consider := func(t int32, w float64) {
		if w <= 0 {
			return
		}
		if atomic.LoadInt32(&st.mate[t]) != -1 {
			return
		}
		if w > bestW || (w == bestW && t > best) {
			bestW = w
			best = t
		}
	}
	if int(s) < g.NA {
		lo, hi := g.RowRange(int(s))
		for e := lo; e < hi; e++ {
			consider(int32(g.NA+g.EdgeB[e]), g.W[e])
		}
	} else {
		for _, e := range g.ColEdgesOf(int(s) - g.NA) {
			consider(int32(g.EdgeA[e]), g.W[e])
		}
	}
	return best
}

func (st *ldState) setCandidate(v, c int32) {
	atomic.StoreInt32(&st.candidate[v], c)
}

// candidateOf returns v's candidate, computing it lazily if it is
// still unset (one-sided initialization leaves V_B candidates unset
// until first needed).
func (st *ldState) candidateOf(v int32) int32 {
	c := atomic.LoadInt32(&st.candidate[v])
	if c == ldUnset {
		c = st.findMate(v)
		// Another thread may be doing the same; the first result
		// stands. A later lazy write could otherwise replace a
		// candidate that another thread already tested dominance
		// against with one nobody tests: v and its new candidate
		// would then point at each other and stay unmatched.
		if !atomic.CompareAndSwapInt32(&st.candidate[v], ldUnset, c) {
			c = atomic.LoadInt32(&st.candidate[v])
		}
	}
	return c
}

// processVertex recomputes v's candidate and matches the edge if it is
// locally dominant (Algorithm 3 with CAS claiming). The retry loop
// handles the race where v's chosen candidate is matched by another
// thread between the dominance check and the claim. w is the calling
// worker's id for queue routing.
func (st *ldState) processVertex(w int, v int32) {
	for {
		if atomic.LoadInt32(&st.mate[v]) != -1 {
			return
		}
		c := st.findMate(v)
		st.setCandidate(v, c)
		if c < 0 {
			return
		}
		if st.candidateOf(c) != v {
			return
		}
		if st.tryMatch(v, c) {
			st.enqueue(w, v)
			st.enqueue(w, c)
			return
		}
		// Claim failed: v or c was matched concurrently; re-examine.
	}
}

// tryMatch atomically claims the pair (v, c) under the two endpoint
// locks, taken in id order so overlapping claims cannot deadlock. Both
// mate words are checked before either is written, so the mate array
// is monotone: entries only ever go from -1 to the final partner.
// (A CAS-then-rollback scheme is not equivalent — during the rollback
// window other threads' FINDMATE scans see the vertex as matched, skip
// it, and can commit a non-dominant edge, silently breaking the greedy
// equivalence. The transient is rare under loose scheduling but shows
// up readily once regions dispatch on the hot worker pool.)
func (st *ldState) tryMatch(v, c int32) bool {
	lo, hi := v, c
	if lo > hi {
		lo, hi = hi, lo
	}
	st.lockVertex(lo)
	st.lockVertex(hi)
	ok := atomic.LoadInt32(&st.mate[lo]) == -1 && atomic.LoadInt32(&st.mate[hi]) == -1
	if ok {
		atomic.StoreInt32(&st.mate[lo], hi)
		atomic.StoreInt32(&st.mate[hi], lo)
	}
	st.unlockVertex(hi)
	st.unlockVertex(lo)
	return ok
}

func (st *ldState) lockVertex(v int32) {
	for !atomic.CompareAndSwapInt32(&st.lock[v], 0, 1) {
		runtime.Gosched()
	}
}

func (st *ldState) unlockVertex(v int32) {
	atomic.StoreInt32(&st.lock[v], 0)
}

// promoteQueue compacts the per-worker queues into the current round's
// work list: the write offsets are the prefix sums of the local
// lengths, so the merge needs no shared counter and runs once per
// round barrier instead of once per append.
func (st *ldState) promoteQueue() {
	total := 0
	for _, q := range st.local {
		total += len(q)
	}
	st.qCur = growInt32(st.qCur, total)
	k := 0
	for w := range st.local {
		k += copy(st.qCur[k:], st.local[w])
		st.local[w] = st.local[w][:0]
	}
}

// enqueue adds v to worker w's local queue once per run; the CAS dedup
// flag ensures both discovering threads of a pair cannot double-queue
// an endpoint. The local append replaces the shared fetch-and-add slot
// counter of the original formulation: no cross-worker cache-line
// traffic on the hot enqueue path.
func (st *ldState) enqueue(w int, v int32) {
	if !atomic.CompareAndSwapInt32(&st.queued[v], 0, 1) {
		return
	}
	st.local[w] = append(st.local[w], v)
}
