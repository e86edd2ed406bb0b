package parallel

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// covTracker tracks which indices a loop body visited and how often.
type covTracker struct {
	mu   sync.Mutex
	hits []int
}

func newCoverage(n int) *covTracker { return &covTracker{hits: make([]int, n)} }

func (c *covTracker) mark(lo, hi int) {
	c.mu.Lock()
	for i := lo; i < hi; i++ {
		c.hits[i]++
	}
	c.mu.Unlock()
}

func (c *covTracker) checkExact(t *testing.T, label string) {
	t.Helper()
	for i, h := range c.hits {
		if h != 1 {
			t.Fatalf("%s: index %d visited %d times", label, i, h)
		}
	}
}

func TestPoolConstructsCoverIndexSpace(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	for _, n := range []int{0, 1, 5, 100, 1003} {
		cov := newCoverage(n)
		pl.ForStatic(n, 4, cov.mark)
		cov.checkExact(t, "ForStatic")

		cov = newCoverage(n)
		pl.ForDynamic(n, 4, 7, cov.mark)
		cov.checkExact(t, "ForDynamic")

		cov = newCoverage(n)
		workers := pl.ForDynamicWorker(n, 4, 7, func(w, lo, hi int) {
			if w < 0 || w >= 4 {
				t.Errorf("worker id %d out of range", w)
			}
			cov.mark(lo, hi)
		})
		cov.checkExact(t, "ForDynamicWorker")
		if want := PlannedWorkers(n, 4, 7); workers != want {
			t.Fatalf("ForDynamicWorker(n=%d) workers = %d, want %d", n, workers, want)
		}
	}
}

func TestPoolReuseAcrossRegions(t *testing.T) {
	pl := NewPool(3)
	defer pl.Close()
	var total atomic.Int64
	for r := 0; r < 200; r++ {
		pl.ForStatic(50, 3, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
	}
	if got := total.Load(); got != 200*50 {
		t.Fatalf("total = %d, want %d", got, 200*50)
	}
}

func TestPoolReduceMatchesSpawn(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	n := 10007
	fold := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i) * 1e-3
		}
		return s
	}
	add := func(a, b float64) float64 { return a + b }
	got := pl.Reduce(n, 4, fold, add, 0)
	want := reduceSpawn(n, 4, fold, add, 0)
	if got != want {
		t.Fatalf("pool reduce = %v, spawn reduce = %v (must be bit-identical)", got, want)
	}
}

func TestPoolPanicPropagatesAndPoolSurvives(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic from pool region")
			}
			if !strings.Contains(r.(string), "boom") {
				t.Fatalf("panic %q does not mention cause", r)
			}
		}()
		pl.ForStatic(100, 4, func(lo, hi int) {
			if lo == 0 {
				panic("boom")
			}
		})
	}()
	// The pool must still be usable after a worker panic.
	cov := newCoverage(64)
	pl.ForDynamic(64, 4, 4, cov.mark)
	cov.checkExact(t, "post-panic ForDynamic")
}

func TestPoolCtxCancellation(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err := pl.ForStaticCtx(ctx, 100000, 4, 10, func(lo, hi int) {
		if seen.Add(int64(hi-lo)) > 500 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen.Load() >= 100000 {
		t.Fatal("cancellation did not stop the loop early")
	}
}

func TestPoolNestedDispatchFallsBack(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	outer := newCoverage(8)
	inner := newCoverage(8 * 32)
	pl.ForStatic(8, 4, func(lo, hi int) {
		outer.mark(lo, hi)
		for i := lo; i < hi; i++ {
			base := i * 32
			// Nested dispatch on the occupied pool must not deadlock.
			pl.ForStatic(32, 4, func(l, h int) {
				inner.mark(base+l, base+h)
			})
		}
	})
	outer.checkExact(t, "outer")
	inner.checkExact(t, "inner")
}

func TestPoolAfterCloseFallsBack(t *testing.T) {
	pl := NewPool(2)
	pl.Close()
	pl.Close() // idempotent
	cov := newCoverage(100)
	pl.ForStatic(100, 2, cov.mark)
	cov.checkExact(t, "post-close ForStatic")
}

func TestPoolDispatchDoesNotAllocate(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	pl.ForStatic(4096, 4, body) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		pl.ForStatic(4096, 4, body)
	})
	if allocs > 0 {
		t.Fatalf("pool ForStatic dispatch allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		pl.ForDynamic(4096, 4, 256, body)
	})
	if allocs > 0 {
		t.Fatalf("pool ForDynamic dispatch allocates %.1f/op, want 0", allocs)
	}
	offsets := []int{0, 1000, 2000, 3000, 4096}
	allocs = testing.AllocsPerRun(100, func() {
		pl.ForOffsets(offsets, body)
	})
	if allocs > 0 {
		t.Fatalf("pool ForOffsets dispatch allocates %.1f/op, want 0", allocs)
	}
}

func TestSchedStatsCounters(t *testing.T) {
	before := Stats()
	pl := NewPool(4)
	if d := Stats().PoolWorkers - before.PoolWorkers; d != 4 {
		t.Fatalf("PoolWorkers delta = %d, want 4", d)
	}
	pl.ForStatic(1000, 4, func(lo, hi int) {})
	if d := Stats().PoolRegions - before.PoolRegions; d < 1 {
		t.Fatalf("PoolRegions did not advance (delta %d)", d)
	}
	pl.Close()
	if got, want := Stats().PoolWorkers, before.PoolWorkers; got != want {
		t.Fatalf("PoolWorkers after Close = %d, want %d", got, want)
	}
}

// TestForDynamicWorkerMatchesPlannedWorkers is the regression test for
// the scratch-sizing contract: worker ids handed to the body are
// always in [0, PlannedWorkers(n, p, chunk)) and the returned count
// equals it, so scratch sized by PlannedWorkers is never indexed out
// of range (previously callers sized scratch by Threads(p), which
// wastes memory and hides the contract).
func TestForDynamicWorkerMatchesPlannedWorkers(t *testing.T) {
	cases := []struct{ n, p, chunk int }{
		{0, 4, 10}, {1, 4, 10}, {5, 8, 10}, {10, 4, 3},
		{100, 4, 1000}, {1000, 3, 7}, {17, 16, 1}, {3, 1, 1},
	}
	for _, c := range cases {
		var maxID atomic.Int64
		maxID.Store(-1)
		got := ForDynamicWorker(c.n, c.p, c.chunk, func(w, lo, hi int) {
			for {
				cur := maxID.Load()
				if int64(w) <= cur || maxID.CompareAndSwap(cur, int64(w)) {
					break
				}
			}
		})
		want := PlannedWorkers(c.n, c.p, c.chunk)
		if got != want {
			t.Errorf("ForDynamicWorker(%v) = %d workers, PlannedWorkers = %d", c, got, want)
		}
		if id := maxID.Load(); id >= int64(want) {
			t.Errorf("ForDynamicWorker(%v) used worker id %d >= planned %d", c, id, want)
		}
	}
}
