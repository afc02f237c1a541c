package core

import (
	"math"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/synth"
)

// Encoder produces a single device's transmit waveform: preamble chirps
// and ON-OFF keyed payload chirps, all using the device's assigned
// cyclic shift. In hardware this is the FPGA chirp generator (§4.1);
// here it synthesizes baseband samples for the channel simulator
// through the shared phase-recurrence engine (internal/synth) — the
// analytic chirp.EvalShifted physics at two complex multiplies per
// sample, with whole frames reduced to one template symbol plus copies.
type Encoder struct {
	p     chirp.Params
	syn   *synth.Synthesizer
	shift int
}

// NewEncoder builds an encoder for one device. The underlying
// synthesizer (and its symbol bank) is cached per parameter set, so
// encoders are cheap to create in bulk.
func NewEncoder(p chirp.Params, shift int) *Encoder {
	syn := synth.For(p)
	return &Encoder{p: syn.Params(), syn: syn, shift: shift}
}

// FrameBitsWaveformMixedTemplates synthesizes the mixed frame's
// template symbols into tmpl (grown to 2N and returned for reuse) —
// the per-device setup step of the tiled channel path, after which any
// sub-range of a receive buffer can be accumulated with
// FrameBitsWaveformMixedAddRange.
func (e *Encoder) FrameBitsWaveformMixedTemplates(tmpl []complex128, bits []byte, frac, freqOffsetHz float64, gain complex128) []complex128 {
	omega := 2 * math.Pi * freqOffsetHz / e.p.SampleRate()
	return e.syn.FrameMixedTemplates(tmpl, e.shift, PreambleUpSymbols, PreambleDownSymbols, bits, frac, omega, gain)
}

// FrameBitsWaveformMixedAddRange accumulates the [lo, hi) clip of the
// mixed frame (placed at sample offset at) into out, reading templates
// prepared by FrameBitsWaveformMixedTemplates with the same arguments.
// Accumulating disjoint tiles that cover the buffer is bit-identical to
// materializing the frame and superposing it (see
// synth.FrameMixedAccumulateRange).
func (e *Encoder) FrameBitsWaveformMixedAddRange(out []complex128, lo, hi, at int, tmpl []complex128, bits []byte, frac, freqOffsetHz float64) {
	omega := 2 * math.Pi * freqOffsetHz / e.p.SampleRate()
	e.syn.FrameMixedAccumulateRange(out, lo, hi, at, tmpl, PreambleUpSymbols, PreambleDownSymbols, bits, frac, omega)
}

// Tx returns the channel transmission of the frame carrying bits: the
// template pair over FrameBitsWaveformMixedTemplates and
// FrameBitsWaveformMixedAddRange, scalar fields left for the caller.
// The closures read bits on every receive, so it must hold the same
// frame for the transmission's lifetime.
func (e *Encoder) Tx(bits []byte) air.Transmission {
	return air.Transmission{
		MixedTmpl: func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			return e.FrameBitsWaveformMixedTemplates(tmpl, bits, frac, freqHz, gain)
		},
		MixedAddRange: func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
			e.FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, bits, frac, freqHz)
		},
	}
}
