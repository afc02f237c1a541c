package core

import (
	"fmt"
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

// Shift returns the device's assigned cyclic shift.
func (e *Encoder) Shift() int { return e.shift }

// SetShift reassigns the device's cyclic shift (the AP can reshuffle
// assignments in its query, §3.3.3).
func (e *Encoder) SetShift(shift int) { e.shift = shift }

// Params returns the chirp parameters.
func (e *Encoder) Params() chirp.Params { return e.p }

// AppendFrame appends the full frame waveform for payload to dst:
// 6 shifted upchirps, 2 shifted downchirps, then one shifted upchirp per
// '1' bit and one symbol of silence per '0' bit of FrameBits(payload).
func (e *Encoder) AppendFrame(dst []complex128, payload []byte) []complex128 {
	return e.AppendFrameBits(dst, FrameBits(payload))
}

// AppendFrameBits is AppendFrame for a caller-supplied bit section
// (already including any checksum). Symbols are written in place from
// the synthesizer's bank — no per-symbol scratch slices.
func (e *Encoder) AppendFrameBits(dst []complex128, bits []byte) []complex128 {
	return e.syn.AppendFrame(dst, e.shift, PreambleUpSymbols, PreambleDownSymbols, bits)
}

// FrameWaveform returns AppendFrame into a fresh slice.
func (e *Encoder) FrameWaveform(payload []byte) []complex128 {
	n := e.p.N()
	dst := make([]complex128, 0, n*FrameSymbols(len(payload)))
	return e.AppendFrame(dst, payload)
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

// OnFraction returns the fraction of payload symbols that carry energy
// for the given bits — used by energy accounting in the simulator.
func OnFraction(bits []byte) float64 {
	if len(bits) == 0 {
		return 0
	}
	on := 0
	for _, b := range bits {
		if b != 0 {
			on++
		}
	}
	return float64(on) / float64(len(bits))
}

// ValidateShiftForBook checks that a shift is assignable in the given
// code book; used when programming devices.
func ValidateShiftForBook(book *CodeBook, shift int) error {
	if _, ok := book.SlotOfShift(shift); !ok {
		return fmt.Errorf("core: shift %d is not a SKIP-%d slot", shift, book.Skip())
	}
	return nil
}
