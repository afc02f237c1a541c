package air_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/simtest"
	"netscatter/internal/synth"
)

// oracleTx pairs a channel transmission with a materializer for its
// frame: the whole delayed, rotated and scaled waveform built without
// the template pair.
type oracleTx struct {
	tx    air.Transmission
	frame func(frac, freqHz float64, gain complex128) []complex128
}

// receiveOracle is the channel's reference definition, built from the
// materializing primitives: every frame materialized whole with its
// carrier gain (gains[i]) and superposed with radio.Superpose in
// transmission order, then each tile's unit-power noise from
// dsp.StreamAt(key, tile). It reads only the placement scalars of each
// transmission (DelaySec, FreqOffsetHz); gains and key are explicit.
func receiveOracle(p chirp.Params, length int, txs []oracleTx, gains []complex128, key int64) []complex128 {
	out := make([]complex128, length)
	fs := p.SampleRate()
	for i, o := range txs {
		d := o.tx.DelaySec * fs
		at := int(math.Floor(d))
		radio.Superpose(out, o.frame(d-float64(at), o.tx.FreqOffsetHz, gains[i]), at)
	}
	for t, lo := 0, 0; lo < length; t, lo = t+1, lo+air.TileSamples {
		st := dsp.StreamAt(key, uint64(t))
		radio.AddAWGN(&st, out[lo:min(lo+air.TileSamples, length)], 1)
	}
	return out
}

// drawGainsAndKey replays the channel's serial randomness from a fresh
// Rng: carrier gains (SNR amplitude, fade, random phase) in
// transmission order, then the round's noise key.
func drawGainsAndKey(seed int64, txs []oracleTx) ([]complex128, int64) {
	rng := dsp.NewRand(seed)
	gains := make([]complex128, len(txs))
	for i, o := range txs {
		gains[i] = complex(radio.AmplitudeForSNRdB(o.tx.SNRdB), 0)
		if o.tx.FadeGain != 0 {
			gains[i] *= o.tx.FadeGain
		}
		if !o.tx.FixedPhase {
			gains[i] *= rng.UniformPhase()
		}
	}
	return gains, int64(rng.Uint64())
}

// mixedFrame materializes a device's frame with synth.FrameMixedInto:
// fractional delay, frequency offset and carrier gain folded into
// synthesis — the single-AP definition of a device's waveform.
func mixedFrame(p chirp.Params, shift int, bits []byte) func(frac, freqHz float64, gain complex128) []complex128 {
	s := synth.For(p)
	return func(frac, freqHz float64, gain complex128) []complex128 {
		omega := 2 * math.Pi * freqHz / p.SampleRate()
		return s.FrameMixedInto(nil, shift, core.PreambleUpSymbols, core.PreambleDownSymbols, bits, frac, omega, gain)
	}
}

// encoderFleet builds nDev encoder transmissions (Encoder.Tx) with
// spread SNRs, fractional delays, frequency offsets and fades, each
// paired with its mixedFrame materializer.
func encoderFleet(p chirp.Params, nDev, nBits int) []oracleTx {
	bits := simtest.Bits(nDev, nBits, int64(nDev))
	fleet := make([]oracleTx, nDev)
	for i := range fleet {
		shift, b := (i*11+5)%p.N(), bits[i]
		tx := core.NewEncoder(p, shift).Tx(b)
		tx.SNRdB = float64(2 + i%7)
		tx.DelaySec = (float64(i%6) + 0.05 + 0.13*float64(i%7)) / p.SampleRate()
		tx.FreqOffsetHz = float64(i*37%150) - 70
		if i%4 == 1 {
			tx.FadeGain = complex(0.6, -0.3)
		}
		fleet[i] = oracleTx{tx, mixedFrame(p, shift, b)}
	}
	return fleet
}

// waveformCase is a WaveformTx transmission — a CSS symbol train with a
// fractional delay and a frequency offset — materialized by the
// fractional-delay, rotate and scale steps.
func waveformCase(p chirp.Params) oracleTx {
	mod := chirp.NewModulator(p)
	var w []complex128
	for _, sym := range []int{3, 40, 17, 99} {
		w = append(w, mod.Symbol(sym%p.N())...)
	}
	tx := air.WaveformTx(w, p.SampleRate())
	tx.SNRdB = 6
	tx.DelaySec = 37.41 / p.SampleRate()
	tx.FreqOffsetHz = 310
	return oracleTx{tx, func(frac, freqHz float64, gain complex128) []complex128 {
		f := dsp.FractionalDelay(w, frac)
		chirp.ApplyFreqOffset(f, freqHz, p.SampleRate())
		for j := range f {
			f[j] *= gain
		}
		return f
	}}
}

// TestReceiveIntoMatchesOracleRace pins the channel against the
// materializing oracle bit for bit — signal and noise — at GOMAXPROCS
// 1, 2 and 4, for SF 7, the paper's SF 9 / 500 kHz and bandwidth
// aggregation (Oversample 2), with a WaveformTx transmission riding in
// the middle of the encoder fleet. A second receive through the same
// channel exercises arena reuse.
func TestReceiveIntoMatchesOracleRace(t *testing.T) {
	cases := []struct {
		p     chirp.Params
		nDev  int
		nBits int
	}{
		{simtest.SmallParams(), 9, 40},
		{chirp.Default500k9, 12, 30},
		{chirp.Params{SF: 7, BW: 125e3, Oversample: 2}, 10, 24},
	}
	for _, tc := range cases {
		fleet := encoderFleet(tc.p, tc.nDev, tc.nBits)
		fleet = slices.Insert(fleet, len(fleet)/2, waveformCase(tc.p))
		txs := make([]air.Transmission, len(fleet))
		for i := range fleet {
			txs[i] = fleet[i].tx
		}
		length := (core.PreambleSymbols + tc.nBits + 2) * tc.p.N()
		if length <= air.TileSamples {
			t.Fatalf("%v: %d samples fit one tile", tc.p, length)
		}
		const seed = 61
		gains, key := drawGainsAndKey(seed, fleet)
		want := receiveOracle(tc.p, length, fleet, gains, key)
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("sf=%d/bw=%g/os=%d/procs=%d", tc.p.SF, tc.p.BW, tc.p.Oversample, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				ch := air.NewChannel(tc.p, dsp.NewRand(seed))
				out := make([]complex128, length)
				for round := 0; round < 2; round++ {
					ch.Rng = dsp.NewRand(seed)
					ch.ReceiveInto(out, txs)
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("round %d: sample %d: channel %v != oracle %v", round, i, out[i], want[i])
						}
					}
				}
			})
		}
	}
}
