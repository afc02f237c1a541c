package air_test

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/simtest"
	"netscatter/internal/synth"
)

// mirrorScalesAndKey replays the MultiChannel's serial randomness for a
// fleet: per-(device, AP) carrier gains in (device, AP) order, then the
// round's noise key — the documented draw-order contract the oracle
// comparison (and replay tooling) depends on.
func mirrorScalesAndKey(seed int64, txs []air.MultiTransmission, nAPs int) ([][]complex128, int64) {
	rng := dsp.NewRand(seed)
	scales := make([][]complex128, len(txs))
	for i := range txs {
		tx := &txs[i]
		scales[i] = make([]complex128, nAPs)
		for a := 0; a < nAPs; a++ {
			gain := complex(radio.AmplitudeForSNRdB(tx.SNRdB[a]), 0)
			if tx.FadeGain != 0 {
				gain *= tx.FadeGain
			}
			if !tx.FixedPhase {
				gain *= rng.UniformPhase()
			}
			scales[i][a] = gain
		}
	}
	return scales, int64(rng.Uint64())
}

// scaledTemplateFrame materializes a device's frame the way a k ≥ 2
// MultiChannel builds it: templates synthesized at unit gain, scaled by
// the AP's carrier gain (ScaleTemplate), then the whole frame
// accumulated from them in one serial pass.
func scaledTemplateFrame(p chirp.Params, shift int, bits []byte) func(frac, freqHz float64, gain complex128) []complex128 {
	enc := core.NewEncoder(p, shift)
	return func(frac, freqHz float64, gain complex128) []complex128 {
		tmpl := air.ScaleTemplate(nil, enc.FrameBitsWaveformMixedTemplates(nil, bits, frac, freqHz, 1), gain)
		frame := make([]complex128, synth.For(p).FrameSamples(core.PreambleSymbols+len(bits), frac))
		enc.FrameBitsWaveformMixedAddRange(frame, 0, len(frame), 0, tmpl, bits, frac, freqHz)
		return frame
	}
}

// TestMultiChannelMatchesSingleAPOracles pins the fan-out's
// bit-exactness contract: each per-AP buffer of a MultiChannel receive
// must equal the serial reference receiver (receiveOracle) given the
// mirrored per-(device, AP) scale draws and that AP's noise key
// (masterKey^ap). At k = 1 the expected frames are the single-AP
// definition — carrier gain folded into synthesis — so a one-AP
// MultiChannel is exactly the single-AP channel; at k ≥ 2 they are
// unit-gain templates scaled per AP. The oracle re-derives everything
// from scratch — fresh synthesizers and encoders, the mirrored scale
// draws — so the equality validates the fan-out's scale composition,
// accumulation order, tile grid and noise-key derivation, for
// k ∈ {1, 2, 4}.
func TestMultiChannelMatchesSingleAPOracles(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 7
	const nBits = 12
	length := (8 + nBits + 2) * p.N()

	for _, k := range []int{1, 2, 4} {
		bits := simtest.Bits(nDev, nBits, 21)
		txs := simtest.MultiTxs(p, nDev, k, bits)
		const seed = 99
		mc := air.NewMultiChannel(p, k, dsp.NewRand(seed))
		outs := mc.Receive(length, txs)

		scales, key := mirrorScalesAndKey(seed, txs, k)
		for a := 0; a < k; a++ {
			fleet := make([]oracleTx, nDev)
			gains := make([]complex128, nDev)
			for i := range fleet {
				shift := (i*7 + 3) % p.N()
				fleet[i].tx = air.Transmission{DelaySec: txs[i].DelaySec, FreqOffsetHz: txs[i].FreqOffsetHz}
				if k == 1 {
					fleet[i].frame = mixedFrame(p, shift, bits[i])
				} else {
					fleet[i].frame = scaledTemplateFrame(p, shift, bits[i])
				}
				gains[i] = scales[i][a]
			}
			want := receiveOracle(p, length, fleet, gains, key^int64(a))
			if !reflect.DeepEqual(outs[a], want) {
				i := firstDiff(outs[a], want)
				t.Fatalf("k=%d AP %d diverges from the serial oracle at sample %d: %v vs %v",
					k, a, i, outs[a][i], want[i])
			}
		}
	}
}

func firstDiff(a, b []complex128) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestMultiChannelSynthesizesTemplatesOnce pins the fan-out's economy
// claim: template synthesis (MixedTmpl) runs exactly once per
// contributing device per receive, regardless of the AP count — the
// per-AP variation is applied by scaling, never by re-synthesis.
func TestMultiChannelSynthesizesTemplatesOnce(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 5
	const k = 4
	bits := simtest.Bits(nDev, 9, 3)
	txs := simtest.MultiTxs(p, nDev, k, bits)
	var calls atomic.Int64
	for i := range txs {
		inner := txs[i].MixedTmpl
		txs[i].MixedTmpl = func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			calls.Add(1)
			return inner(tmpl, frac, freqHz, gain)
		}
	}
	mc := air.NewMultiChannel(p, k, dsp.NewRand(5))
	length := (8 + 9 + 2) * p.N()
	outs := mc.Receive(length, txs)
	if got := calls.Load(); got != nDev {
		t.Fatalf("first receive synthesized %d templates for %d devices", got, nDev)
	}
	mc.ReceiveInto(outs, txs)
	if got := calls.Load(); got != 2*nDev {
		t.Fatalf("after two receives: %d synth calls, want %d", got, 2*nDev)
	}
}

// TestMultiChannelBitIdenticalAcrossGOMAXPROCSRace pins the fan-out's
// determinism contract under the race detector: all k buffers are
// bit-identical across GOMAXPROCS ∈ {1, 2, 4} — the (AP, tile)-indexed
// noise streams and transmission-ordered accumulation make every
// buffer a pure function of (seed, transmissions), not of worker
// scheduling.
func TestMultiChannelBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 12
	const k = 3
	length := (8 + 16 + 3) * p.N()

	run := func(procs int) [][]complex128 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		bits := simtest.Bits(nDev, 16, 8)
		mc := air.NewMultiChannel(p, k, dsp.NewRand(44))
		outs := mc.Receive(length, simtest.MultiTxs(p, nDev, k, bits))
		// A second round through the same channel exercises arena reuse.
		mc.Rng = dsp.NewRand(44)
		outs2 := mc.Receive(length, simtest.MultiTxs(p, nDev, k, bits))
		for a := range outs {
			if !reflect.DeepEqual(outs[a], outs2[a]) {
				t.Fatalf("procs=%d: arena reuse diverged at AP %d", procs, a)
			}
		}
		return outs
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		for a := range want {
			if !reflect.DeepEqual(got[a], want[a]) {
				i := firstDiff(got[a], want[a])
				t.Fatalf("GOMAXPROCS=%d AP %d diverges from serial at sample %d", procs, a, i)
			}
		}
	}
}

// TestMultiChannelZeroAllocSteadyState: after a warm-up receive, the
// fan-out reuses every arena — base templates, per-AP templates,
// scales, placements — so steady-state receives allocate nothing at
// GOMAXPROCS=1, at one AP and at two.
func TestMultiChannelZeroAllocSteadyState(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	p := simtest.SmallParams()
	const nDev = 6
	for _, k := range []int{1, 2} {
		bits := simtest.Bits(nDev, 10, 6)
		txs := simtest.MultiTxs(p, nDev, k, bits)
		mc := air.NewMultiChannel(p, k, dsp.NewRand(9))
		outs := mc.Receive((8+10+2)*p.N(), txs)
		allocs := testing.AllocsPerRun(10, func() { mc.ReceiveInto(outs, txs) })
		if allocs != 0 {
			t.Fatalf("k=%d: steady-state receive allocates %.1f objects/op", k, allocs)
		}
	}
}

// TestMultiChannelOneAPNoBaseArena: a one-AP receive synthesizes into
// its AP's template slots directly, so its first receive allocates one
// template arena (nDev·2N samples), not a unit-gain base arena beside
// it; two APs allocate the base plus two per-AP arenas.
func TestMultiChannelOneAPNoBaseArena(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	p := simtest.SmallParams()
	const nDev = 32
	arena := uint64(nDev * 2 * p.N() * 16)
	bits := simtest.Bits(nDev, 10, 6)
	length := (8 + 10 + 2) * p.N()
	for _, tc := range []struct{ k, arenas int }{{1, 1}, {2, 3}} {
		txs := simtest.MultiTxs(p, nDev, tc.k, bits)
		outs := make([][]complex128, tc.k)
		for a := range outs {
			outs[a] = make([]complex128, length)
		}
		mc := air.NewMultiChannel(p, tc.k, dsp.NewRand(9))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mc.ReceiveInto(outs, txs)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		lo, hi := uint64(tc.arenas)*arena, uint64(tc.arenas+1)*arena
		if got < lo || got >= hi {
			t.Fatalf("k=%d: first receive allocated %d bytes, want [%d, %d) (%d template arenas)",
				tc.k, got, lo, hi, tc.arenas)
		}
	}
}

// TestMultiChannelNoiseIndependentPerAP: with no transmissions the
// buffers are pure noise; distinct APs must draw distinct streams
// (key^ap), and AP 0's stream must be exactly the single-AP channel's
// for the same Rng sequence — the degeneracy that makes a one-AP multi
// deployment the classic deployment.
func TestMultiChannelNoiseIndependentPerAP(t *testing.T) {
	p := simtest.SmallParams()
	length := 3 * p.N()
	mc := air.NewMultiChannel(p, 3, dsp.NewRand(12))
	outs := mc.Receive(length, nil)
	for a := 1; a < 3; a++ {
		if reflect.DeepEqual(outs[0], outs[a]) {
			t.Fatalf("AP %d drew AP 0's noise stream", a)
		}
	}
	ch := air.NewChannel(p, dsp.NewRand(12))
	single := ch.Receive(length, nil)
	if !reflect.DeepEqual(outs[0], single) {
		t.Fatal("AP 0's noise differs from the single-AP channel at the same seed")
	}
	// Correlation sanity: distinct streams should be near-orthogonal.
	var dot, p0, p1 float64
	for i := range outs[0] {
		dot += real(outs[0][i])*real(outs[1][i]) + imag(outs[0][i])*imag(outs[1][i])
		p0 += real(outs[0][i])*real(outs[0][i]) + imag(outs[0][i])*imag(outs[0][i])
		p1 += real(outs[1][i])*real(outs[1][i]) + imag(outs[1][i])*imag(outs[1][i])
	}
	if corr := math.Abs(dot) / math.Sqrt(p0*p1); corr > 0.1 {
		t.Fatalf("per-AP noise streams correlate at %.3f", corr)
	}
}
