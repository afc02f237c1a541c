// Package pool is the repository's shared bounded worker pool: a
// parallel-for over an index space, capped at GOMAXPROCS participating
// goroutines. The decode pipeline fans symbol spectra across it, the
// channel simulator fans template synthesis and receive-buffer tiles
// through it, and the figure experiments run independent rounds on it —
// one concurrency primitive instead of ad-hoc goroutine spawns in every
// layer.
//
// Work items must be independent; the pool makes no ordering guarantee
// beyond "ForEach returns after every fn call has returned". Callers
// that need determinism index results by the *item* (per-index slots,
// tile-indexed rng streams — see air's tiled receive), never by the
// worker, so output is identical at any pool width.
//
// Helpers are resident: a helper goroutine is spawned the first time a
// call finds none idle, then parks on its own channel between calls. A
// call hands each helper a small fixed-field task (the call's reusable
// job descriptor plus a worker id) — no per-call goroutine, closure or
// WaitGroup — so a steady-state parallel-for allocates nothing at any
// width. Helpers never outnumber the inflight budget, because each one
// only runs while holding a token. Like the budget they are
// process-wide and live as long as the process; a parked helper costs
// only its stack.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size returns the pool's parallelism bound: GOMAXPROCS at call time.
func Size() int { return runtime.GOMAXPROCS(0) }

// inflight bounds the helpers the pool may have running across every
// caller, so nested parallel-fors (a parallel decode inside a parallel
// experiment sweep) share one machine-wide budget instead of
// multiplying. The limit is re-read from GOMAXPROCS on every acquire,
// so runtime.GOMAXPROCS changes (e.g. `go test -cpu 1,4`) take effect
// immediately. Callers always run work inline themselves, so forward
// progress never depends on acquiring a token.
var inflight atomic.Int64

func acquireToken() bool {
	limit := int64(Size() - 1)
	for {
		cur := inflight.Load()
		if cur >= limit {
			return false
		}
		if inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseToken() { inflight.Add(-1) }

// job is one parallel-for call's shared state: the body (exactly one of
// fn and fnW is set), the index space, the item-claim counter and the
// helpers' completion group. Descriptors are recycled through a free
// list, so only the deepest concurrent nesting ever allocates one.
type job struct {
	fn   func(i int)
	fnW  func(worker, i int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
}

// run claims and executes items as worker w until the space is drained.
func (j *job) run(w int) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		if j.fn != nil {
			j.fn(i)
		} else {
			j.fnW(w, i)
		}
	}
}

// task is what a parked helper receives: the call to help and the
// worker id to run it as.
type task struct {
	j *job
	w int
}

// helper is one resident goroutine. Its channel holds at most one task:
// a helper is handed work only after being popped off the idle stack,
// and it pushes itself back only after finishing its current task.
type helper struct {
	in chan task
}

var (
	mu    sync.Mutex
	idle  []*helper
	spare []*job
)

func (h *helper) loop() {
	for t := range h.in {
		t.j.run(t.w)
		// Back on the idle stack before the token goes back and before
		// the caller can return, so a call that finds no idle helper is
		// one whose helpers all hold tokens: the resident count never
		// exceeds the inflight budget.
		mu.Lock()
		idle = append(idle, h)
		mu.Unlock()
		releaseToken()
		t.j.wg.Done()
	}
}

// idleHelper pops a parked helper, spawning one when none is idle.
func idleHelper() *helper {
	mu.Lock()
	if k := len(idle); k > 0 {
		h := idle[k-1]
		idle = idle[:k-1]
		mu.Unlock()
		return h
	}
	mu.Unlock()
	h := &helper{in: make(chan task, 1)}
	go h.loop()
	return h
}

func getJob() *job {
	mu.Lock()
	defer mu.Unlock()
	if k := len(spare); k > 0 {
		j := spare[k-1]
		spare = spare[:k-1]
		return j
	}
	return new(job)
}

func putJob(j *job) {
	j.fn, j.fnW = nil, nil
	mu.Lock()
	spare = append(spare, j)
	mu.Unlock()
}

// forEach runs the parallel-for with up to workers participants: the
// caller as worker 0 plus one helper per token it can acquire, with
// worker ids 1, 2, … in acquisition order. Under budget pressure the
// remaining ids simply never run, and the caller drains the rest.
func forEach(workers, n int, fn func(i int), fnW func(worker, i int)) {
	j := getJob()
	j.fn, j.fnW, j.n = fn, fnW, n
	j.next.Store(0)
	for w := 1; w < workers; w++ {
		if !acquireToken() {
			break
		}
		j.wg.Add(1)
		idleHelper().in <- task{j: j, w: w}
	}
	j.run(0)
	j.wg.Wait()
	putJob(j)
}

// ForEach invokes fn(i) for every i in [0, n), using up to Size()
// goroutines. With a single-slot pool (or a single item) it runs inline
// on the calling goroutine. Hot callers (the channel simulator, the
// parallel decoder) pass persistent funcs, so a steady-state call
// allocates nothing.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(Size(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	forEach(workers, n, fn, nil)
}

// ForEachWorker invokes fn(w, i) for every i in [0, n), where w
// identifies the executing worker (0 <= w < workers). Callers use w to
// index per-worker scratch state — each worker id runs on exactly one
// goroutine at a time, so scratch needs no locking. workers caps the
// participant count (values < 1 mean Size()); under global budget
// pressure fewer ids may actually run, never more. The caller
// participates as worker 0 rather than blocking idle.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = Size()
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	forEach(workers, n, nil, fn)
}
