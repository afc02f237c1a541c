package air_test

// The fleet constructors these tests used to carry live in
// internal/simtest now (TiledTxs, Bits), shared with the sim and
// multi-AP suites.

import (
	"runtime"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/dsp"
	"netscatter/internal/simtest"
)

// TestReceiveTiledParallelBitIdenticalRace pins the tentpole's
// determinism contract under the race detector: the tiled receive is
// bit-identical across GOMAXPROCS 1, 2 and 4 — tile-indexed noise
// streams and transmission-ordered accumulation make the output a pure
// function of (seed, transmissions), not of worker scheduling.
func TestReceiveTiledParallelBitIdenticalRace(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 16
	bits := simtest.Bits(nDev, 18, 5)
	length := (8 + 18 + 3) * p.N()

	run := func(procs int) []complex128 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		ch := air.NewChannel(p, dsp.NewRand(31))
		out := ch.Receive(length, simtest.TiledTxs(p, nDev, bits))
		// A second round through the same channel exercises arena reuse.
		ch.Rng = dsp.NewRand(31)
		out2 := ch.ReceiveInto(make([]complex128, length), simtest.TiledTxs(p, nDev, bits))
		for i := range out {
			if out[i] != out2[i] {
				t.Fatalf("procs=%d: arena reuse diverged at sample %d", procs, i)
			}
		}
		return out
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d diverges from serial at sample %d: %v vs %v",
					procs, i, got[i], want[i])
			}
		}
	}
}

// TestReceiveTiledNoiseReplayable: reseeding the channel Rng replays
// the exact noise (the round key is drawn from it), while consecutive
// rounds with an advancing Rng draw fresh noise.
func TestReceiveTiledNoiseReplayable(t *testing.T) {
	p := simtest.SmallParams()
	ch := air.NewChannel(p, dsp.NewRand(8))
	a := ch.Receive(4*p.N(), nil)
	b := ch.Receive(4*p.N(), nil) // Rng advanced: different key
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive rounds drew identical noise")
	}
	ch.Rng = dsp.NewRand(8)
	c := ch.Receive(4*p.N(), nil)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("reseeded channel did not replay noise at sample %d", i)
		}
	}
}

// TestReceiveTiledZeroAllocSteadyState: after a warm-up receive, the
// tiled path reuses its template arena and per-transmission state —
// no allocations per round at GOMAXPROCS=1.
func TestReceiveTiledZeroAllocSteadyState(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	p := simtest.SmallParams()
	const nDev = 6
	bits := simtest.Bits(nDev, 10, 6)
	txs := simtest.TiledTxs(p, nDev, bits)
	ch := air.NewChannel(p, dsp.NewRand(9))
	out := make([]complex128, (8+10+2)*p.N())
	ch.ReceiveInto(out, txs)
	allocs := testing.AllocsPerRun(10, func() { ch.ReceiveInto(out, txs) })
	if allocs != 0 {
		t.Fatalf("steady-state tiled receive allocates %.1f objects/op", allocs)
	}
}
