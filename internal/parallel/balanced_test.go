package parallel

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkOffsets validates the structural invariants of a partition.
func checkOffsets(t *testing.T, offsets []int, n, parts int) {
	t.Helper()
	if len(offsets) != parts+1 {
		t.Fatalf("len(offsets) = %d, want %d", len(offsets), parts+1)
	}
	if offsets[0] != 0 || offsets[parts] != n {
		t.Fatalf("offsets endpoints = [%d, %d], want [0, %d]", offsets[0], offsets[parts], n)
	}
	for k := 0; k < parts; k++ {
		if offsets[k] > offsets[k+1] {
			t.Fatalf("offsets not monotone at %d: %v", k, offsets)
		}
	}
}

// partCost sums costs[lo:hi] treating negatives as zero.
func partCost(costs []int32, lo, hi int) int64 {
	var s int64
	for i := lo; i < hi; i++ {
		if costs[i] > 0 {
			s += int64(costs[i])
		}
	}
	return s
}

// adversarialCosts returns the skew shapes the balanced partitioner
// must survive: one giant row, all-zero rows, fewer rows than parts,
// and power-law-ish random skew.
func adversarialCosts(rng *rand.Rand) map[string][]int32 {
	giant := make([]int32, 1000)
	for i := range giant {
		giant[i] = 1
	}
	giant[500] = 1 << 20
	skewed := make([]int32, 2048)
	for i := range skewed {
		skewed[i] = int32(rng.Intn(3))
		if rng.Intn(64) == 0 {
			skewed[i] = int32(1 + rng.Intn(10000))
		}
	}
	return map[string][]int32{
		"giant-row":  giant,
		"all-zero":   make([]int32, 257),
		"n-lt-parts": {5, 1, 9},
		"empty":      {},
		"single":     {42},
		"skewed":     skewed,
		"negatives":  {3, -7, 2, -1, 5, 0, 8},
	}
}

func TestBalancedOffsetsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, costs := range adversarialCosts(rng) {
		for _, parts := range []int{1, 2, 3, 8, 17} {
			offsets := BalancedOffsets(costs, parts, nil)
			checkOffsets(t, offsets, len(costs), parts)
			total := partCost(costs, 0, len(costs))
			var maxCost int64
			for _, c := range costs {
				if int64(c) > maxCost {
					maxCost = int64(c)
				}
			}
			// Balance guarantee: no part exceeds an even share by more
			// than one maximal element.
			bound := total/int64(parts) + maxCost + 1
			for k := 0; k < parts; k++ {
				if pc := partCost(costs, offsets[k], offsets[k+1]); pc > bound {
					t.Errorf("%s parts=%d: part %d cost %d exceeds bound %d (offsets %v)",
						name, parts, k, pc, bound, offsets)
				}
			}
		}
	}
}

func TestBalancedOffsetsFromPtrMatchesCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, costs := range adversarialCosts(rng) {
		// FromPtr requires a valid CSR pointer, i.e. nonnegative costs.
		if name == "negatives" {
			continue
		}
		ptr := make([]int, len(costs)+1)
		ptr[0] = 3 // nonzero base: FromPtr must handle ptr[0] != 0
		for i, c := range costs {
			ptr[i+1] = ptr[i] + int(c)
		}
		for _, parts := range []int{1, 2, 3, 8, 17} {
			want := BalancedOffsets(costs, parts, nil)
			got := BalancedOffsetsFromPtr(ptr, parts, nil)
			checkOffsets(t, got, len(costs), parts)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s parts=%d: FromPtr %v != BalancedOffsets %v", name, parts, got, want)
				}
			}
		}
	}
}

func TestBalancedOffsetsReusesBuffer(t *testing.T) {
	buf := make([]int, 16)
	out := BalancedOffsets([]int32{1, 2, 3, 4}, 4, buf)
	if &out[0] != &buf[0] {
		t.Fatal("BalancedOffsets did not reuse the provided buffer")
	}
}

func TestForOffsetsWorkerIsPartIndex(t *testing.T) {
	offsets := []int{0, 0, 5, 5, 12, 20} // includes empty parts
	// A pool with a worker per part dispatches on the pool; a smaller
	// one falls back to spawning. Both must keep part k on worker id k.
	for _, size := range []int{len(offsets) - 1, 2} {
		pl := NewPool(size)
		var mu sync.Mutex
		seen := map[int][2]int{}
		pl.ForOffsetsWorkerCtx(context.Background(), offsets, 0, func(w, lo, hi int) {
			mu.Lock()
			seen[w] = [2]int{lo, hi}
			mu.Unlock()
		})
		pl.Close()
		// Part k must run with worker id k; empty parts must be skipped.
		want := map[int][2]int{1: {0, 5}, 3: {5, 12}, 4: {12, 20}}
		if len(seen) != len(want) {
			t.Fatalf("pool size %d: seen = %v, want %v", size, seen, want)
		}
		for k, r := range want {
			if seen[k] != r {
				t.Fatalf("pool size %d: part %d ran as %v, want %v", size, k, seen[k], r)
			}
		}
	}
}

// A cancellable context splits each part into polled sub-chunks; every
// sub-chunk of part k must still run as worker k, and together they
// must cover the part exactly once.
func TestForOffsetsWorkerCtxChunksKeepPartIndex(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	offsets := []int{0, 0, 50, 50, 120, 200}
	for _, size := range []int{len(offsets) - 1, 2} {
		pl := NewPool(size)
		var mu sync.Mutex
		covered := make([]int, offsets[len(offsets)-1])
		err := pl.ForOffsetsWorkerCtx(ctx, offsets, 7, func(w, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if lo < offsets[w] || hi > offsets[w+1] {
				t.Errorf("pool size %d: [%d,%d) ran as worker %d", size, lo, hi, w)
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		pl.Close()
		if err != nil {
			t.Fatalf("pool size %d: %v", size, err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("pool size %d: index %d covered %d times", size, i, c)
			}
		}
	}
}

// A context that is already cancelled runs no chunk, on the pool, on
// the spawning fallback and for a single part, and reports the
// cancellation.
func TestForOffsetsWorkerCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	body := func(w, lo, hi int) { ran.Add(1) }
	pl := NewPool(4)
	defer pl.Close()
	small := NewPool(2)
	defer small.Close()
	for name, run := range map[string]func() error{
		"pool":   func() error { return pl.ForOffsetsWorkerCtx(ctx, ctxOffsets(1000), 10, body) },
		"spawn":  func() error { return small.ForOffsetsWorkerCtx(ctx, ctxOffsets(1000), 10, body) },
		"single": func() error { return pl.ForOffsetsWorkerCtx(ctx, []int{0, 1000}, 10, body) },
	} {
		if err := run(); err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("pre-cancelled loops ran %d chunks", n)
	}
}

// Cancelling mid-run stops the loop between sub-chunks.
func TestForOffsetsWorkerCtxStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pl := NewPool(4)
	defer pl.Close()
	done := make(chan error, 1)
	go func() {
		done <- pl.ForOffsetsWorkerCtx(ctx, ctxOffsets(1_000_000), 10, func(w, lo, hi int) {
			time.Sleep(100 * time.Microsecond)
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop after cancel")
	}
}
