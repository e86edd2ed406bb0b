package parallel

import (
	"context"
	"sort"
	"sync"
)

// Cost-model ("balanced") partitioning. The paper's imbalanced loops
// are indexed by rows of S whose nonzero counts follow a power law;
// equal index ranges leave one worker with the heavy rows. Splitting
// the index space by *cumulative cost* (nnz) instead gives every
// worker a near-equal share of the actual work while keeping ranges
// contiguous — so a balanced partition is just a different set of
// [lo, hi) boundaries and any loop body that is correct under static
// partitioning is correct (and bit-identical) under balancing.

// BalancedOffsets partitions [0, len(costs)) into parts contiguous
// ranges of near-equal cumulative cost via a single prefix-sum walk.
// The boundary of part k is the smallest index whose running cost
// reaches k/parts of the total, so every part's cost is at most
// total/parts plus one maximal element. Negative costs are treated as
// zero. A zero total falls back to an equal index split. The result
// has parts+1 entries (part k is [offsets[k], offsets[k+1])); parts
// may be empty. offsets is reused when it has capacity.
func BalancedOffsets(costs []int32, parts int, offsets []int) []int {
	n := len(costs)
	if parts < 1 {
		parts = 1
	}
	offsets = growOffsets(offsets, parts+1)
	offsets[0] = 0
	var total int64
	for _, c := range costs {
		if c > 0 {
			total += int64(c)
		}
	}
	if total == 0 {
		for k := 1; k <= parts; k++ {
			offsets[k] = k * n / parts
		}
		return offsets
	}
	var cum int64
	k := 1
	for i := 0; i < n && k < parts; i++ {
		if c := costs[i]; c > 0 {
			cum += int64(c)
		}
		for k < parts && cum*int64(parts) >= int64(k)*total {
			offsets[k] = i + 1
			k++
		}
	}
	for ; k <= parts; k++ {
		offsets[k] = n
	}
	return offsets
}

// BalancedOffsetsFromPtr is BalancedOffsets with the costs given
// implicitly by a CSR-style pointer array: cost[i] = ptr[i+1]-ptr[i]
// (ptr must be nondecreasing). The cumulative costs are ptr itself, so
// each boundary is found by binary search instead of a full walk. The
// result is identical to BalancedOffsets on the materialized costs.
func BalancedOffsetsFromPtr(ptr []int, parts int, offsets []int) []int {
	n := len(ptr) - 1
	if n < 0 {
		n = 0
	}
	if parts < 1 {
		parts = 1
	}
	offsets = growOffsets(offsets, parts+1)
	offsets[0] = 0
	if n == 0 {
		for k := 1; k <= parts; k++ {
			offsets[k] = 0
		}
		return offsets
	}
	base := ptr[0]
	total := int64(ptr[n] - base)
	if total <= 0 {
		for k := 1; k <= parts; k++ {
			offsets[k] = k * n / parts
		}
		return offsets
	}
	prev := 0
	for k := 1; k < parts; k++ {
		kt := int64(k) * total
		j := prev + sort.Search(n-prev, func(d int) bool {
			return int64(ptr[prev+d]-base)*int64(parts) >= kt
		})
		offsets[k] = j
		prev = j
	}
	offsets[parts] = n
	return offsets
}

// growOffsets returns s resized to length n, reusing capacity.
func growOffsets(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// PlannedWorkers reports the worker count ForDynamicWorker will use
// for (n, p, chunk): body worker ids are always in
// [0, PlannedWorkers(n, p, chunk)). Callers sizing per-worker scratch
// should use this (or the returned count) rather than Threads(p),
// which overestimates when n is small relative to chunk.
func PlannedWorkers(n, p, chunk int) int {
	p = Threads(p)
	if n <= 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if p == 1 || n <= chunk {
		return 1
	}
	if mw := (n + chunk - 1) / chunk; p > mw {
		p = mw
	}
	return p
}

// ForOffsets runs body over a precomputed partition (offsets as
// produced by BalancedOffsets), one part per worker. Empty parts are
// skipped. Like the other free functions it dispatches on the shared
// pool when available.
func ForOffsets(offsets []int, body func(lo, hi int)) {
	parts := len(offsets) - 1
	if parts <= 0 || offsets[parts] <= offsets[0] {
		return
	}
	if parts == 1 {
		body(offsets[0], offsets[1])
		return
	}
	if sp := acquireShared(parts); sp != nil {
		defer releaseShared()
		sp.ForOffsets(offsets, body)
		return
	}
	forOffsetsSpawn(offsets, body)
}

func forOffsetsSpawn(offsets []int, body func(lo, hi int)) {
	spawnRegionsCount.Add(1)
	parts := len(offsets) - 1
	var pb panicBox
	var wg sync.WaitGroup
	for k := 0; k < parts; k++ {
		lo, hi := offsets[k], offsets[k+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	pb.rethrow()
}

func forOffsetsCtxSpawn(ctx context.Context, offsets []int, chunk int, body func(lo, hi int)) error {
	spawnRegionsCount.Add(1)
	parts := len(offsets) - 1
	done := ctx.Done()
	var pb panicBox
	var wg sync.WaitGroup
	for k := 0; k < parts; k++ {
		lo, hi := offsets[k], offsets[k+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			runChunked(done, lo, hi, chunk, body)
		}(lo, hi)
	}
	wg.Wait()
	pb.rethrow()
	return ctx.Err()
}

func forOffsetsWorkerCtxSpawn(done <-chan struct{}, offsets []int, chunk int, body func(worker, lo, hi int)) {
	spawnRegionsCount.Add(1)
	parts := len(offsets) - 1
	var pb panicBox
	var wg sync.WaitGroup
	for k := 0; k < parts; k++ {
		lo, hi := offsets[k], offsets[k+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			runChunkedWorker(done, k, lo, hi, chunk, body)
		}(k, lo, hi)
	}
	wg.Wait()
	pb.rethrow()
}
