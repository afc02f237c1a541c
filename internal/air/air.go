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
	"netscatter/internal/pool"
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

// contributes reports whether the transmission adds any samples.
func (tx *Transmission) contributes() bool {
	return tx.MixedTmpl != nil && tx.MixedAddRange != nil
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

// Channel assembles received frames for one chirp parameter set. Its
// synthesis scratch is reused across Receive calls; a Channel is not
// safe for concurrent use (it owns an Rng), but one channel per
// goroutine is cheap.
type Channel struct {
	// Params supplies the sample rate.
	Params chirp.Params
	// NoisePower is the thermal noise power (1 for the normalized
	// simulator; 0 disables noise for deterministic tests).
	NoisePower float64
	// Rng drives noise, phases and nothing else.
	Rng *dsp.Rand

	// Reused per-call state: carrier gains, the per-transmission
	// template arena (2N samples per device, synthesized once per
	// receive and read by every tile), per-transmission placements, and
	// the persistent template/tile workers with the in-flight call state
	// they read (a fresh closure per call would heap-allocate every
	// round). All of it is written before the fan-out and only read
	// inside it.
	gains     []complex128
	tmplArena []complex128
	tmpls     [][]complex128
	txAt      []int
	txFrac    []float64

	tmplWorker func(i int)
	tileWorker func(t int)
	curTxs     []Transmission
	curOut     []complex128
	curKey     int64
	noiseOn    bool
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
// Templates are synthesized once per transmission (in parallel), then
// fixed cache-sized tiles of out are zeroed, accumulated in
// transmission order and noise-filled independently across the worker
// pool.
//
// Determinism is exact: carrier phases are drawn from the channel Rng
// in transmission order before any fan-out, one more serial draw keys
// the round's noise, synthesis draws no randomness, per-sample
// accumulation order is transmission order regardless of tile
// scheduling, and each tile's noise comes from its tile-indexed stream
// (dsp.StreamAt) rather than any worker-owned generator — so the output
// is bit-identical for a given seed at any GOMAXPROCS.
func (c *Channel) ReceiveInto(out []complex128, txs []Transmission) []complex128 {
	c.prepareGains(txs)

	// The round's noise key: one serial draw from the channel Rng keys
	// every tile's noise stream (dsp.StreamAt(key, tile)). Noise is thus
	// a pure function of the Rng sequence and the fixed tile grid —
	// replayable by reseeding the Rng and identical at any worker count.
	noise := c.NoisePower > 0 && c.Rng != nil
	var key int64
	if noise {
		key = int64(c.Rng.Uint64())
	}
	c.receive(out, txs, noise, key)
	return out
}

// ReceiveIntoKeyed is ReceiveInto with the round's noise key supplied
// by the caller instead of drawn from the channel Rng: tile t draws its
// noise from dsp.StreamAt(key, t). Carrier phases for non-FixedPhase
// transmissions still come from the channel Rng, in transmission order.
// This is the single-AP oracle hook the multi-AP fan-out is pinned
// against — MultiChannel gives AP a the key masterKey^a, and a plain
// Channel handed the same key and per-AP transmissions must reproduce
// that AP's buffer bit for bit (see MultiChannel and multiap tests).
func (c *Channel) ReceiveIntoKeyed(out []complex128, txs []Transmission, key int64) []complex128 {
	c.prepareGains(txs)
	c.receive(out, txs, c.NoisePower > 0, key)
	return out
}

// prepareGains fills the per-transmission carrier gains (SNR amplitude
// × optional fade × random carrier phase), drawn from the channel Rng
// in transmission order before any fan-out.
func (c *Channel) prepareGains(txs []Transmission) {
	if cap(c.gains) < len(txs) {
		c.gains = make([]complex128, len(txs))
	}
	gains := c.gains[:len(txs)]
	for i := range txs {
		tx := &txs[i]
		if !tx.contributes() {
			continue // no waveform: consumes no randomness
		}
		gains[i] = carrierGain(tx.SNRdB, tx.FadeGain, tx.FixedPhase, c.Rng)
	}
}

// carrierGain composes one link's carrier gain: SNR amplitude, then the
// optional fade, then the random phase. The multi-AP channel builds its
// per-(device, AP) scales through this same function, so a scale and a
// single-AP gain composed from the same inputs are the same bits.
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

// receive runs the accumulate + noise phases with the gains already
// prepared and the noise key fixed. Phase one synthesizes every
// transmission's templates into the channel's template arena
// (independent per transmission, fanned across the pool). Phase two
// partitions out into fixed tileSamples-sized tiles; each tile zeroes
// its span, accumulates every transmission's overlap in transmission
// order, and adds its own noise stream — bit-identical to the serial
// whole-buffer pass because each output sample sees the same additions
// in the same order no matter how tiles are scheduled, and each tile's
// noise comes from the tile-indexed stream, not from a worker-owned
// generator.
func (c *Channel) receive(out []complex128, txs []Transmission, noise bool, key int64) {
	nTx := len(txs)
	n2 := 2 * c.Params.N()
	if cap(c.txAt) < nTx {
		c.txAt = make([]int, nTx)
		c.txFrac = make([]float64, nTx)
		c.tmpls = make([][]complex128, nTx)
	}
	if cap(c.tmplArena) < nTx*n2 {
		c.tmplArena = make([]complex128, nTx*n2)
	}
	c.txAt = c.txAt[:nTx]
	c.txFrac = c.txFrac[:nTx]
	c.tmpls = c.tmpls[:nTx]
	fs := c.Params.SampleRate()
	for i := range txs {
		c.txAt[i], c.txFrac[i] = splitDelay(txs[i].DelaySec, fs)
		c.tmpls[i] = c.tmplArena[i*n2 : i*n2 : (i+1)*n2]
	}

	if c.tmplWorker == nil {
		c.tmplWorker = c.tmplOne
		c.tileWorker = c.tileOne
	}
	c.curTxs = txs
	c.curOut = out
	c.curKey = key
	c.noiseOn = noise
	pool.ForEach(nTx, c.tmplWorker)
	nTiles := (len(out) + tileSamples - 1) / tileSamples
	pool.ForEach(nTiles, c.tileWorker)
	c.curTxs = nil
	c.curOut = nil
}

// tmplOne synthesizes transmission i's templates into its arena slot
// (frequency offset, carrier gain and fractional delay folded in).
func (c *Channel) tmplOne(i int) {
	tx := &c.curTxs[i]
	if !tx.contributes() {
		return
	}
	c.tmpls[i] = tx.MixedTmpl(c.tmpls[i], c.txFrac[i], tx.FreqOffsetHz, c.gains[i])
}

// tileOne builds tile t of the in-flight receive: zero, accumulate
// every transmission's overlap in order, add the tile's noise stream.
func (c *Channel) tileOne(t int) {
	out := c.curOut
	lo := t * tileSamples
	hi := min(lo+tileSamples, len(out))
	w := out[lo:hi]
	for i := range w {
		w[i] = 0
	}
	for i := range c.curTxs {
		tx := &c.curTxs[i]
		if !tx.contributes() {
			continue
		}
		tx.MixedAddRange(out, lo, hi, c.txAt[i], c.tmpls[i], c.txFrac[i], tx.FreqOffsetHz)
	}
	if c.noiseOn {
		st := dsp.StreamAt(c.curKey, uint64(t))
		radio.AddAWGN(&st, w, c.NoisePower)
	}
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
