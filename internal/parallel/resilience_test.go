package parallel

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Resilience tests for the runtime: a worker panic must surface on the
// caller's goroutine exactly once (no deadlock, no lost panic, no
// double rethrow), and the ctx-aware loops must honor cancellation
// promptly without leaking workers. All run under -race in CI.

// catchPanic runs f and returns the recovered panic value (nil if f
// returned normally).
func catchPanic(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestFaultForStaticPanicPropagates(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		var calls atomic.Int64
		v := catchPanic(func() {
			ForStatic(1000, p, func(lo, hi int) {
				calls.Add(1)
				if lo <= 500 && 500 < hi {
					panic("worker 500 failed")
				}
			})
		})
		s, ok := v.(string)
		if !ok || !strings.Contains(s, "worker 500 failed") {
			t.Fatalf("p=%d: panic %v not propagated", p, v)
		}
		if calls.Load() == 0 {
			t.Fatalf("p=%d: body never ran", p)
		}
	}
}

func TestFaultForDynamicPanicPropagates(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		v := catchPanic(func() {
			ForDynamic(1000, p, 7, func(lo, hi int) {
				if lo <= 123 && 123 < hi {
					panic("chunk holding 123 failed")
				}
			})
		})
		if v == nil {
			t.Fatalf("p=%d: panic swallowed", p)
		}
	}
}

func TestFaultForDynamicWorkerPanicPropagates(t *testing.T) {
	v := catchPanic(func() {
		ForDynamicWorker(100, 4, 3, func(worker, lo, hi int) {
			if lo == 0 {
				panic("first chunk failed")
			}
		})
	})
	if v == nil {
		t.Fatal("panic swallowed")
	}
}

func TestFaultTasksPanicPropagates(t *testing.T) {
	ran := make([]atomic.Bool, 3)
	v := catchPanic(func() {
		Tasks(2, []func(threads int){
			func(threads int) { ran[0].Store(true) },
			func(threads int) { panic("task 1 failed") },
			func(threads int) { ran[2].Store(true) },
		})
	})
	if v == nil {
		t.Fatal("panic swallowed")
	}
	if !ran[0].Load() || !ran[2].Load() {
		t.Fatal("sibling tasks did not run to completion")
	}
}

func TestFaultReducePanicPropagates(t *testing.T) {
	v := catchPanic(func() {
		ReduceFloat64(1000, 4, func(lo, hi int) float64 {
			if lo == 0 {
				panic("fold failed")
			}
			return 0
		}, func(a, b float64) float64 { return a + b }, 0)
	})
	if v == nil {
		t.Fatal("panic swallowed")
	}
}

// Exactly-once: a panic that fires in one worker must not suppress the
// caller's ability to run the loop again (the runtime must fully drain
// its workers before rethrowing).
func TestFaultPanicThenReuse(t *testing.T) {
	var first atomic.Bool
	v := catchPanic(func() {
		ForDynamic(100, 4, 1, func(lo, hi int) {
			if first.CompareAndSwap(false, true) {
				panic("transient")
			}
		})
	})
	if v == nil {
		t.Fatal("panic swallowed")
	}
	// The runtime is stateless; an immediate rerun must succeed.
	var n atomic.Int64
	ForDynamic(100, 4, 1, func(lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 100 {
		t.Fatalf("rerun covered %d of 100", n.Load())
	}
}

// ctxOffsets is the balanced-style partition the offsets ctx variants
// run over in the tests below: four parts of [0, n).
func ctxOffsets(n int) []int { return []int{0, n / 4, n / 2, 3 * n / 4, n} }

func TestFaultCtxVariantsPanicPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl := NewPool(4)
	defer pl.Close()
	cases := map[string]func(){
		"static": func() {
			_ = pl.ForStaticCtx(ctx, 100, 4, 0, func(lo, hi int) { panic("boom") })
		},
		"offsets": func() {
			_ = pl.ForOffsetsCtx(ctx, ctxOffsets(100), 1, func(lo, hi int) { panic("boom") })
		},
		"tasks": func() {
			_ = TasksCtx(ctx, 2, []func(threads int){func(threads int) { panic("boom") }})
		},
	}
	for name, f := range cases {
		if catchPanic(f) == nil {
			t.Fatalf("%s: panic swallowed", name)
		}
	}
}

// Cancellation: a cancelled context must stop the loop promptly even
// when each chunk is slow, and the error must be the context's.
func TestFaultCancellationStopsLoops(t *testing.T) {
	run := func(name string, f func(ctx context.Context) error) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- f(ctx) }()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err != context.Canceled {
				t.Fatalf("%s: err = %v, want context.Canceled", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: loop did not stop after cancel", name)
		}
	}
	pl := NewPool(4)
	defer pl.Close()
	// Each body sleeps so the loop cannot finish 1e6 items before the
	// cancel; completing within the 5s budget proves the poll works.
	run("static", func(ctx context.Context) error {
		return pl.ForStaticCtx(ctx, 1_000_000, 4, 10, func(lo, hi int) {
			time.Sleep(100 * time.Microsecond)
		})
	})
	run("offsets", func(ctx context.Context) error {
		return pl.ForOffsetsCtx(ctx, ctxOffsets(1_000_000), 10, func(lo, hi int) {
			time.Sleep(100 * time.Microsecond)
		})
	})
	tasks := make([]func(threads int), 1000)
	for i := range tasks {
		tasks[i] = func(threads int) { time.Sleep(time.Millisecond) }
	}
	run("tasks", func(ctx context.Context) error {
		return TasksCtx(ctx, 2, tasks)
	})
}

func TestFaultPreCancelledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n atomic.Int64
	body := func(lo, hi int) { n.Add(int64(hi - lo)) }
	pl := NewPool(4)
	defer pl.Close()
	if err := pl.ForStaticCtx(ctx, 1000, 4, 0, body); err != context.Canceled {
		t.Fatalf("static: %v", err)
	}
	if err := pl.ForOffsetsCtx(ctx, ctxOffsets(1000), 10, body); err != context.Canceled {
		t.Fatalf("offsets: %v", err)
	}
	if err := TasksCtx(ctx, 2, []func(threads int){func(threads int) { n.Add(1) }}); err != context.Canceled {
		t.Fatalf("tasks: %v", err)
	}
	// A pre-cancelled context may let some chunks through (workers are
	// racing the poll) but must not complete the full range.
	if n.Load() >= 2000 {
		t.Fatalf("pre-cancelled loops completed all work (%d items)", n.Load())
	}
}

func TestCtxVariantsCompleteWithoutCancel(t *testing.T) {
	// The ctx paths must compute exactly what the plain paths compute.
	ctx := context.Background()
	check := func(name string, f func(body func(lo, hi int)) error) {
		var sum atomic.Int64
		if err := f(func(lo, hi int) {
			s := int64(0)
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			sum.Add(s)
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := int64(9999 * 10000 / 2)
		if sum.Load() != want {
			t.Fatalf("%s: sum = %d, want %d", name, sum.Load(), want)
		}
	}
	pl := NewPool(4)
	defer pl.Close()
	check("static", func(body func(lo, hi int)) error {
		return pl.ForStaticCtx(ctx, 10000, 3, 0, body)
	})
	check("offsets", func(body func(lo, hi int)) error {
		return pl.ForOffsetsCtx(ctx, ctxOffsets(10000), 17, body)
	})
	// A pool smaller than the partition falls back to spawning.
	small := NewPool(2)
	defer small.Close()
	check("static-spawn", func(body func(lo, hi int)) error {
		return small.ForStaticCtx(ctx, 10000, 3, 0, body)
	})
	check("offsets-spawn", func(body func(lo, hi int)) error {
		return small.ForOffsetsCtx(ctx, ctxOffsets(10000), 17, body)
	})
	// Nil-done contexts delegate to the uncancellable fast path.
	check("background-delegation", func(body func(lo, hi int)) error {
		return pl.ForStaticCtx(context.Background(), 10000, 3, 17, body)
	})
}
