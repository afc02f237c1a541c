package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		counts := make([]atomic.Int32, n)
		ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForEachWorkerIDsAreExclusive(t *testing.T) {
	// Each worker id must never run two items concurrently — that is the
	// contract that makes per-worker scratch safe.
	const workers, n = 4, 200
	busy := make([]atomic.Int32, workers)
	ForEachWorker(workers, n, func(w, _ int) {
		if busy[w].Add(1) != 1 {
			t.Errorf("worker %d ran concurrently with itself", w)
		}
		runtime.Gosched()
		busy[w].Add(-1)
	})
}

func TestForEachWorkerBoundsWorkerID(t *testing.T) {
	const workers, n = 3, 50
	var maxW atomic.Int32
	ForEachWorker(workers, n, func(w, _ int) {
		for {
			cur := maxW.Load()
			if int32(w) <= cur || maxW.CompareAndSwap(cur, int32(w)) {
				break
			}
		}
	})
	if got := maxW.Load(); got >= workers {
		t.Fatalf("worker id %d out of bounds", got)
	}
}

func TestForEachWorkerSerialFallback(t *testing.T) {
	// workers=1 must run inline: no goroutines means results are written
	// in index order.
	order := make([]int, 0, 10)
	ForEachWorker(1, 10, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial fallback used worker %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestSizePositive(t *testing.T) {
	if Size() < 1 {
		t.Fatalf("Size() = %d", Size())
	}
}

// TestForEachZeroAlloc: with persistent bodies, a steady-state
// parallel-for allocates nothing at any width — helpers are resident
// and the job descriptor is recycled. Run at -cpu 1,2,4 in CI.
func TestForEachZeroAlloc(t *testing.T) {
	var sink [64]atomic.Int64
	fn := func(i int) { sink[i].Add(1) }
	fnW := func(w, i int) { sink[i].Add(int64(w)) }
	ForEach(len(sink), fn)
	ForEachWorker(0, len(sink), fnW)
	if n := testing.AllocsPerRun(100, func() { ForEach(len(sink), fn) }); n != 0 {
		t.Errorf("ForEach allocates %v/op at GOMAXPROCS=%d; want 0", n, Size())
	}
	if n := testing.AllocsPerRun(100, func() { ForEachWorker(0, len(sink), fnW) }); n != 0 {
		t.Errorf("ForEachWorker allocates %v/op at GOMAXPROCS=%d; want 0", n, Size())
	}
}

// TestConcurrentNestedCallers hammers the pool from several goroutines
// at once, each running nested parallel-fors, and checks coverage,
// worker-id exclusivity per call, that every token comes back, and
// that the resident helpers never outnumber the budget.
func TestConcurrentNestedCallers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	mu.Lock()
	before := len(idle)
	mu.Unlock()

	const callers, outer, inner, workers = 4, 8, 50, 3
	done := make(chan struct{})
	for c := 0; c < callers; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for rep := 0; rep < 20; rep++ {
				var counts [outer * inner]atomic.Int32
				ForEach(outer, func(o int) {
					var busy [workers]atomic.Int32
					ForEachWorker(workers, inner, func(w, i int) {
						if busy[w].Add(1) != 1 {
							t.Errorf("worker %d ran concurrently with itself", w)
						}
						counts[o*inner+i].Add(1)
						busy[w].Add(-1)
					})
				})
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Errorf("item %d visited %d times", i, got)
						return
					}
				}
			}
		}()
	}
	for c := 0; c < callers; c++ {
		<-done
	}
	if got := inflight.Load(); got != 0 {
		t.Fatalf("%d tokens still held after every call returned", got)
	}
	mu.Lock()
	resident := len(idle)
	mu.Unlock()
	if limit := max(before, runtime.GOMAXPROCS(0)-1); resident > limit {
		t.Fatalf("%d resident helpers, budget allows %d", resident, limit)
	}
}
