package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverage checks that a loop construct visits every index in [0,n)
// exactly once.
func coverage(t *testing.T, name string, n int, run func(body func(lo, hi int))) {
	t.Helper()
	counts := make([]int32, n)
	run(func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("%s: bad range [%d,%d) for n=%d", name, lo, hi, n)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%s: index %d visited %d times (n=%d)", name, i, c, n)
		}
	}
}

func TestForStaticCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1001, 4096} {
		for _, p := range []int{0, 1, 2, 3, 8, 64} {
			coverage(t, "ForStatic", n, func(body func(lo, hi int)) {
				ForStatic(n, p, body)
			})
		}
	}
}

func TestForDynamicCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 999, 1000, 1001, 5000} {
		for _, p := range []int{0, 1, 2, 7, 32} {
			for _, chunk := range []int{0, 1, 3, 1000, 10000} {
				coverage(t, "ForDynamic", n, func(body func(lo, hi int)) {
					ForDynamic(n, p, chunk, body)
				})
			}
		}
	}
}

func TestForDynamicWorkerCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 37, 2048} {
		for _, p := range []int{1, 2, 8} {
			counts := make([]int32, n)
			workers := ForDynamicWorker(n, p, 16, func(worker, lo, hi int) {
				if worker < 0 || worker >= p {
					t.Errorf("worker id %d out of [0,%d)", worker, p)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			if n > 0 && (workers < 1 || workers > p) {
				t.Fatalf("workers = %d for p=%d", workers, p)
			}
			if n == 0 && workers != 0 {
				t.Fatalf("empty loop launched %d workers", workers)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, c)
				}
			}
		}
	}
}

func TestForDynamicWorkerScratchIsolation(t *testing.T) {
	// Per-worker scratch must never be shared between two concurrently
	// running bodies: verify by marking scratch in-use.
	const n, p = 10000, 4
	inUse := make([]int32, p)
	ForDynamicWorker(n, p, 8, func(worker, lo, hi int) {
		if !atomic.CompareAndSwapInt32(&inUse[worker], 0, 1) {
			t.Error("two bodies share a worker id concurrently")
			return
		}
		for i := lo; i < hi; i++ {
			_ = i
		}
		atomic.StoreInt32(&inUse[worker], 0)
	})
}

func TestThreads(t *testing.T) {
	if got := Threads(7); got != 7 {
		t.Fatalf("Threads(7) = %d", got)
	}
	if got := Threads(0); got < 1 {
		t.Fatalf("Threads(0) = %d, want >= 1", got)
	}
	if got := Threads(-3); got < 1 {
		t.Fatalf("Threads(-3) = %d, want >= 1", got)
	}
}

func TestTasksRunsAll(t *testing.T) {
	for _, nTasks := range []int{0, 1, 2, 5, 20} {
		for _, p := range []int{1, 2, 8} {
			var ran atomic.Int32
			tasks := make([]func(int), nTasks)
			for i := range tasks {
				tasks[i] = func(threads int) {
					if threads < 1 {
						t.Errorf("task given %d threads", threads)
					}
					ran.Add(1)
				}
			}
			Tasks(p, tasks)
			if int(ran.Load()) != nTasks {
				t.Fatalf("Tasks(p=%d) ran %d of %d tasks", p, ran.Load(), nTasks)
			}
		}
	}
}

func TestTasksThreadBudget(t *testing.T) {
	// With 8 workers and 4 tasks each task should see 2 threads.
	var seen atomic.Int32
	tasks := make([]func(int), 4)
	for i := range tasks {
		tasks[i] = func(threads int) { seen.Add(int32(threads)) }
	}
	Tasks(8, tasks)
	if got := seen.Load(); got != 8 {
		t.Fatalf("total thread budget %d, want 8", got)
	}
}

func TestSumFloat64MatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 10, 1000, 12345} {
		vals := make([]float64, n)
		want := 0.0
		for i := range vals {
			vals[i] = rng.NormFloat64()
			want += vals[i]
		}
		got := SumFloat64(n, 4, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("n=%d: SumFloat64 = %g, want %g", n, got, want)
		}
	}
}

func TestReduceFloat64Max(t *testing.T) {
	vals := []float64{3, -1, 9, 2, 8, 9.5, -20}
	got := ReduceFloat64(len(vals), 3,
		func(lo, hi int) float64 {
			m := vals[lo]
			for i := lo + 1; i < hi; i++ {
				if vals[i] > m {
					m = vals[i]
				}
			}
			return m
		},
		func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		},
		vals[0])
	if got != 9.5 {
		t.Fatalf("max reduce = %g, want 9.5", got)
	}
}

func TestReduceEmpty(t *testing.T) {
	got := ReduceFloat64(0, 4, func(lo, hi int) float64 { return 1 },
		func(a, b float64) float64 { return a + b }, 42)
	if got != 42 {
		t.Fatalf("empty reduce = %g, want init 42", got)
	}
}

// Property: for any n and p, a dynamic-schedule parallel sum of 1s
// equals n (i.e., no index is dropped or duplicated).
func TestQuickDynamicSum(t *testing.T) {
	f := func(nRaw uint16, pRaw, chunkRaw uint8) bool {
		n := int(nRaw) % 5000
		p := int(pRaw)%8 + 1
		chunk := int(chunkRaw)%128 + 1
		var total atomic.Int64
		ForDynamic(n, p, chunk, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
		return total.Load() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: static blocks are contiguous, disjoint and ordered.
func TestQuickStaticPartition(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw) % 4000
		p := int(pRaw)%16 + 1
		var total atomic.Int64
		ForStatic(n, p, func(lo, hi int) {
			if lo >= hi || lo < 0 || hi > n {
				total.Add(1 << 40) // poison
				return
			}
			total.Add(int64(hi - lo))
		})
		return total.Load() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagation(t *testing.T) {
	constructs := map[string]func(){
		"ForStatic": func() {
			ForStatic(100, 4, func(lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		},
		"ForDynamic": func() {
			ForDynamic(100, 4, 5, func(lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		},
		"ForDynamicWorker": func() {
			ForDynamicWorker(100, 4, 5, func(w, lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		},
		"Tasks": func() {
			Tasks(2, []func(int){func(int) { panic("boom") }, func(int) {}})
		},
		"Reduce": func() {
			ReduceFloat64(100, 4, func(lo, hi int) float64 { panic("boom") },
				func(a, b float64) float64 { return a + b }, 0)
		},
	}
	for name, fn := range constructs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: worker panic not propagated to caller", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkForDynamicOverhead(b *testing.B) {
	x := make([]float64, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForDynamic(len(x), 0, DefaultChunk, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				x[j] = x[j]*0.5 + 1
			}
		})
	}
}

func BenchmarkForStaticOverhead(b *testing.B) {
	x := make([]float64, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForStatic(len(x), 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				x[j] = x[j]*0.5 + 1
			}
		})
	}
}
