// Package air composes the signal the AP antenna actually receives: the
// superposition of every concurrent backscatter transmission, each with
// its own amplitude (link SNR), timing offset (hardware delay + time of
// flight), frequency offset (crystal + Doppler), random carrier phase
// and optional fading gain, plus unit-power thermal noise.
//
// The simulator works in normalized baseband: noise power is 1, and a
// transmission arriving with SNR s dB has amplitude sqrt(10^(s/10)).
package air

import (
	"math"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
)

// Transmission describes one device's contribution to a received frame.
// Its waveform reaches the channel as a template pair; a transmission
// without both closures contributes nothing.
type Transmission struct {
	// MixedTmpl synthesizes the frame's templates — fractional delay,
	// frequency offset and carrier gain folded in — into tmpl's storage
	// when its capacity suffices, once per receive
	// (core.Encoder's FrameBitsWaveformMixedTemplates).
	MixedTmpl func(tmpl []complex128, fracSamples, freqOffsetHz float64, gain complex128) []complex128
	// MixedAddRange accumulates the [lo, hi) clip of the frame placed
	// at sample offset at into out, reading the templates MixedTmpl
	// returned (FrameBitsWaveformMixedAddRange). The channel calls it
	// concurrently for disjoint ranges.
	MixedAddRange func(out []complex128, lo, hi, at int, tmpl []complex128, fracSamples, freqOffsetHz float64)
	// SNRdB is the received signal-to-noise ratio at the AP over the
	// receive bandwidth (power versus the unit noise floor).
	SNRdB float64
	// DelaySec is the total arrival delay relative to the nominal
	// frame start: per-packet hardware delay variation plus round-trip
	// time of flight.
	DelaySec float64
	// FreqOffsetHz is the device's oscillator offset (plus Doppler).
	FreqOffsetHz float64
	// FadeGain is an optional extra complex channel gain (1 if zero).
	FadeGain complex128
	// FixedPhase disables the random carrier phase (for deterministic
	// spectral tests).
	FixedPhase bool
}

// WaveformTx returns a transmission carrying an arbitrary time-domain
// waveform (a CSS or ASK symbol train, a test signal); callers set the
// scalar fields. Its template is the whole waveform, fractionally
// delayed by bandlimited interpolation, rotated by the frequency offset
// and scaled by the carrier gain, and each tile superposes its clip of
// it. Cyclically shifted chirps are not bandlimited (the shift wrap is
// a genuine discontinuity), so interpolation cannot represent their
// sub-sample delays exactly — NetScatter frames use core.Encoder.Tx,
// whose analytic synthesis can. An empty waveform contributes nothing.
func WaveformTx(w []complex128, sampleRate float64) Transmission {
	if len(w) == 0 {
		return Transmission{}
	}
	return Transmission{
		MixedTmpl: func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			if frac > 1e-9 {
				tmpl = dsp.FractionalDelay(w, frac)
			} else {
				tmpl = append(tmpl[:0], w...)
			}
			chirp.ApplyFreqOffset(tmpl, freqHz, sampleRate)
			for j := range tmpl {
				tmpl[j] *= gain
			}
			return tmpl
		},
		MixedAddRange: superposeRange,
	}
}

// superposeRange is WaveformTx's range add: the [lo, hi) clip of the
// template placed at sample offset at.
func superposeRange(out []complex128, lo, hi, at int, tmpl []complex128, _, _ float64) {
	radio.Superpose(out[lo:hi], tmpl, at-lo)
}

// splitDelay splits an arrival delay into integer sample placement and
// the fractional remainder.
func splitDelay(delaySec, sampleRate float64) (intDelay int, fracSamples float64) {
	delaySamples := delaySec * sampleRate
	intDelay = int(math.Floor(delaySamples))
	return intDelay, delaySamples - float64(intDelay)
}

// Channel assembles received frames for one chirp parameter set: the
// one-AP view of a MultiChannel, taking scalar-SNR transmissions. Its
// scratch is reused across Receive calls; a Channel is not safe for
// concurrent use (it owns an Rng), but one channel per goroutine is
// cheap.
type Channel struct {
	// Params supplies the sample rate.
	Params chirp.Params
	// NoisePower is the thermal noise power (1 for the normalized
	// simulator; 0 disables noise for deterministic tests).
	NoisePower float64
	// Rng drives noise, phases and nothing else.
	Rng *dsp.Rand

	// The one-AP engine, built on first receive, with the exported
	// fields above forwarded on every call; txs and snrs are the reused
	// multi-AP copies of the caller's transmissions, outs its one
	// receive buffer.
	mc   *MultiChannel
	txs  []MultiTransmission
	snrs []float64
	outs [1][]complex128
}

// tileSamples is the channel's partition grain: 4096 complex samples
// (64 KiB) keep a tile's accumulate and noise traffic cache-resident
// while leaving enough tiles per frame to occupy the pool. It is a
// constant of the output format — never derived from worker count — so
// the tile decomposition (and with it the per-tile noise streams) is
// identical at any GOMAXPROCS.
const tileSamples = 4096

// NewChannel returns a unit-noise channel.
func NewChannel(p chirp.Params, rng *dsp.Rand) *Channel {
	return &Channel{Params: p, NoisePower: 1, Rng: rng}
}

// Receive builds a received stream of length samples from the given
// transmissions, allocating the output. See ReceiveInto.
func (c *Channel) Receive(length int, txs []Transmission) []complex128 {
	return c.ReceiveInto(make([]complex128, length), txs)
}

// ReceiveInto builds the received stream into out (which is zeroed
// first) and returns it. Each transmission is scaled to its SNR,
// rotated by its frequency offset, delayed by its arrival offset
// (integer placement plus a fractional delay baked into its templates,
// so timing offsets behave physically for both upchirps and
// downchirps), given a random carrier phase, and superposed, with
// thermal noise added on top.
//
// The receive is a one-AP MultiChannel receive: templates are
// synthesized once per transmission with the carrier gain folded in,
// then fixed cache-sized tiles of out are zeroed, accumulated in
// transmission order and noise-filled independently across the worker
// pool. Determinism is exact: carrier phases are drawn from the
// channel Rng in transmission order before any fan-out, one more
// serial draw keys the round's noise, and tile t's noise comes from
// dsp.StreamAt(key, t) — so the output is bit-identical for a given
// seed at any GOMAXPROCS.
func (c *Channel) ReceiveInto(out []complex128, txs []Transmission) []complex128 {
	if c.mc == nil {
		c.mc = NewMultiChannel(c.Params, 1, c.Rng)
	}
	c.mc.Params, c.mc.NoisePower, c.mc.Rng = c.Params, c.NoisePower, c.Rng
	n := len(txs)
	if cap(c.txs) < n {
		c.txs = make([]MultiTransmission, n)
		c.snrs = make([]float64, n)
	}
	mtxs, snrs := c.txs[:n], c.snrs[:n]
	for i := range txs {
		tx := &txs[i]
		snrs[i] = tx.SNRdB
		mtxs[i] = MultiTransmission{
			MixedTmpl:     tx.MixedTmpl,
			MixedAddRange: tx.MixedAddRange,
			SNRdB:         snrs[i : i+1],
			DelaySec:      tx.DelaySec,
			FreqOffsetHz:  tx.FreqOffsetHz,
			FadeGain:      tx.FadeGain,
			FixedPhase:    tx.FixedPhase,
		}
	}
	c.outs[0] = out
	c.mc.ReceiveInto(c.outs[:], mtxs)
	c.outs[0] = nil
	return out
}

// carrierGain composes one link's carrier gain: SNR amplitude, then the
// optional fade, then the random phase.
func carrierGain(snrDB float64, fade complex128, fixedPhase bool, rng *dsp.Rand) complex128 {
	gain := complex(radio.AmplitudeForSNRdB(snrDB), 0)
	if fade != 0 {
		gain *= fade
	}
	if !fixedPhase && rng != nil {
		gain *= rng.UniformPhase()
	}
	return gain
}

// growComplex returns dst extended to length m, reusing its storage
// when the capacity allows.
func growComplex(dst []complex128, m int) []complex128 {
	if cap(dst) >= m {
		return dst[:m]
	}
	return make([]complex128, m)
}

// FrameLength returns the sample count of a frame with the given total
// symbol count, plus margin symbols of tail room for delayed arrivals.
func (c *Channel) FrameLength(symbols, marginSymbols int) int {
	return (symbols + marginSymbols) * c.Params.N()
}
