package chirp

import (
	"fmt"

	"netscatter/internal/dsp"
)

// Modulator synthesizes cyclic-shifted chirp symbols for one parameter
// set. The baseline upchirp is generated once; each symbol is a cyclic
// rotation (plus a band frequency offset in aggregate-bandwidth mode).
type Modulator struct {
	p  Params
	up []complex128
}

// NewModulator builds a modulator for p.
func NewModulator(p Params) *Modulator {
	p = p.norm()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Modulator{p: p, up: Upchirp(p)}
}

// Symbol returns a freshly allocated upchirp symbol with the given cyclic
// shift. At critical sampling (Oversample == 1) shifts are realized as
// time rotations — what the backscatter chirp generator does in hardware,
// where the wrapped tail aliases back into the same dechirped bin. In
// aggregate-bandwidth mode (Oversample > 1) a time rotation would split
// its energy across bands (the wrap segment aliases at the aggregate band
// edge, fs = Oversample·BW, not at BW), so the shift is realized as the
// equivalent initial-frequency offset instead: the chirp sweeping from
// shift·BW/2^SF, aliasing at the aggregate edge exactly as in Fig. 5.
// The paper's FPGA chirp generator programs initial frequency directly
// (§4.1: "generate assigned cyclic shift with required frequency
// offset"), so this is hardware-faithful too.
func (m *Modulator) Symbol(shift int) []complex128 {
	p := m.p
	shift = dsp.WrapIndex(shift, p.N())
	if p.Oversample == 1 {
		return CyclicShift(m.up, shift)
	}
	sym := make([]complex128, len(m.up))
	copy(sym, m.up)
	ApplyFreqOffset(sym, float64(shift)*p.BinHz(), p.SampleRate())
	return sym
}

// AppendSymbol appends Symbol(shift) to dst and returns the extended
// slice, writing the rotation (or frequency mix) directly into the
// appended region — no throwaway per-symbol slice.
func (m *Modulator) AppendSymbol(dst []complex128, shift int) []complex128 {
	p := m.p
	shift = dsp.WrapIndex(shift, p.N())
	if p.Oversample == 1 {
		dst = append(dst, m.up[shift:]...)
		return append(dst, m.up[:shift]...)
	}
	base := len(dst)
	dst = append(dst, m.up...)
	ApplyFreqOffset(dst[base:], float64(shift)*p.BinHz(), p.SampleRate())
	return dst
}

// Demodulator de-spreads chirp symbols and locates FFT peaks with
// zero-padded sub-bin resolution. All scratch buffers are preallocated so
// the per-symbol hot path does not allocate (the receiver performs this
// once per symbol regardless of how many devices transmit — the paper's
// constant-receiver-complexity claim). The forward transform runs through
// dsp.FFTPlan.ForwardPruned: only the first N of the ZeroPad·N padded
// samples are nonzero, so the early butterfly stages collapse and the
// zero tail is never even written.
//
// A Demodulator is not safe for concurrent use; create one per goroutine
// (plans are shared and read-only, so per-goroutine demodulators are
// cheap).
type Demodulator struct {
	p       Params
	zeroPad int
	down    []complex128
	up      []complex128
	padBuf  []complex128
	power   []float64
	plan    *dsp.FFTPlan

	// arena backs the batched Spectra API: nSyms contiguous power
	// spectra handed out as sub-slices, reused across calls.
	arena     []float64
	arenaOuts [][]float64

	// Planar batch pipeline state (batch.go): the pruned planar FFT
	// plan and the split re/im scratch a tile of symbols is dechirped
	// and transformed in.
	bplan            *dsp.BatchPlan
	batchRe, batchIm []float64
}

// NewDemodulator builds a demodulator with the given zero-padding factor
// (>= 1). The padded FFT has ZeroPad·N bins; Fig. 8 of the paper uses a
// 10x padding (5120 bins for SF 9).
func NewDemodulator(p Params, zeroPad int) *Demodulator {
	p = p.norm()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if zeroPad < 1 {
		panic(fmt.Sprintf("chirp: zero-pad factor %d must be >= 1", zeroPad))
	}
	padN := dsp.NextPow2(p.N() * zeroPad)
	zeroPad = padN / p.N()
	return &Demodulator{
		p:       p,
		zeroPad: zeroPad,
		down:    Downchirp(p),
		up:      Upchirp(p),
		padBuf:  make([]complex128, padN),
		power:   make([]float64, padN),
		plan:    dsp.Plan(padN),
	}
}

// ZeroPad returns the effective padding factor (rounded up to keep the
// FFT size a power of two).
func (d *Demodulator) ZeroPad() int { return d.zeroPad }

// PaddedBins returns the number of bins in the padded spectrum.
func (d *Demodulator) PaddedBins() int { return len(d.padBuf) }

// Spectrum de-spreads one received symbol (len == N) against the baseline
// downchirp, zero-pads, and returns the power spectrum. The returned
// slice aliases an internal buffer valid until the next call.
func (d *Demodulator) Spectrum(sym []complex128) []float64 {
	return d.spectrum(d.power, sym, d.down)
}

// SpectrumDown de-spreads against the baseline *upchirp* instead, which
// turns received downchirps into tones. The packet-start estimator uses
// this on the two preamble downchirps.
func (d *Demodulator) SpectrumDown(sym []complex128) []float64 {
	return d.spectrum(d.power, sym, d.up)
}

// Spectra computes the power spectra of nSyms consecutive symbols of sig
// beginning at sample index start, returning one PaddedBins()-long slice
// per symbol. All spectra live in a single reused arena, valid until the
// next Spectra call; Spectrum/SpectrumDown use separate storage and do
// not invalidate them.
func (d *Demodulator) Spectra(sig []complex128, start, nSyms int) [][]float64 {
	n := d.p.N()
	if start < 0 || start+nSyms*n > len(sig) {
		panic(fmt.Sprintf("chirp: Spectra window [%d, %d) outside signal of %d samples",
			start, start+nSyms*n, len(sig)))
	}
	m := len(d.padBuf)
	if cap(d.arena) < nSyms*m {
		d.arena = make([]float64, nSyms*m)
		d.arenaOuts = make([][]float64, 0, nSyms)
	}
	d.arena = d.arena[:nSyms*m]
	d.arenaOuts = d.arenaOuts[:0]
	for s := 0; s < nSyms; s++ {
		dst := d.arena[s*m : (s+1)*m]
		d.spectrum(dst, sig[start+s*n:start+(s+1)*n], d.down)
		d.arenaOuts = append(d.arenaOuts, dst)
	}
	return d.arenaOuts
}

func (d *Demodulator) spectrum(dst []float64, sym []complex128, ref []complex128) []float64 {
	n := d.p.N()
	if len(sym) != n {
		panic(fmt.Sprintf("chirp: symbol length %d, want %d", len(sym), n))
	}
	// Fused dechirp: the product lands directly in the transform buffer's
	// nonzero prefix; the padded tail is never touched (ForwardPruned
	// ignores it).
	for i := 0; i < n; i++ {
		d.padBuf[i] = sym[i] * ref[i]
	}
	d.plan.ForwardPruned(d.padBuf, n)
	return dsp.PowerSpectrum(dst, d.padBuf)
}

// BinOf converts a padded-spectrum index to a (possibly fractional)
// chirp bin in [0, N).
func (d *Demodulator) BinOf(paddedIdx int) float64 {
	return float64(paddedIdx) / float64(d.zeroPad)
}

// PaddedIndexOf converts an integer chirp bin to the corresponding
// padded-spectrum index.
func (d *Demodulator) PaddedIndexOf(bin int) int {
	return dsp.WrapIndex(bin, d.p.N()) * d.zeroPad
}

// PeakNear returns the maximum power in the padded spectrum within
// ±halfBins (fractional chirp bins) of the expected integer bin, along
// with the fractional bin where it occurs. The concurrent decoder calls
// this once per device per symbol on the shared spectrum.
func PeakNear(d *Demodulator, spec []float64, bin int, halfBins float64) (power float64, at float64) {
	center := d.PaddedIndexOf(bin)
	half := int(halfBins * float64(d.zeroPad))
	idx, pw := windowMax(spec, center, half)
	return pw, d.BinOf(idx)
}

// ScanPeaks locates, for every candidate cyclic shift, the strongest peak
// within ±halfBins chirp bins of its assigned bin — the whole candidate
// set against one shared spectrum in a single pass. outPow[i] receives
// the peak power and outAt[i] (when non-nil) the fractional chirp bin of
// the peak. The inner window loops index the spectrum directly, wrapping
// only at the circular boundary, unlike a per-element modulo walk.
func (d *Demodulator) ScanPeaks(spec []float64, shifts []int, halfBins float64, outPow, outAt []float64) {
	half := int(halfBins * float64(d.zeroPad))
	for i, s := range shifts {
		center := d.PaddedIndexOf(s)
		idx, pw := windowMax(spec, center, half)
		outPow[i] = pw
		if outAt != nil {
			outAt[i] = d.BinOf(idx)
		}
	}
}

// ScanPaddedCenters writes into outPow[i] the maximum power within ±half
// padded bins of centers[i] (a padded-spectrum index). A negative center
// skips that slot, leaving outPow[i] untouched — the payload tracker uses
// this to scan only detected candidates.
func ScanPaddedCenters(spec []float64, centers []int, half int, outPow []float64) {
	for i, c := range centers {
		if c < 0 {
			continue
		}
		_, pw := windowMax(spec, c, half)
		outPow[i] = pw
	}
}

// windowMax returns the index and value of the largest element in the
// circular window [center-half, center+half] of spec. Windows that do
// not straddle the boundary — the overwhelmingly common case — run as a
// single direct slice scan.
func windowMax(spec []float64, center, half int) (idx int, val float64) {
	n := len(spec)
	lo, hi := center-half, center+half
	if lo >= 0 && hi < n {
		idx, val = lo, spec[lo]
		for i := lo + 1; i <= hi; i++ {
			if spec[i] > val {
				idx, val = i, spec[i]
			}
		}
		return idx, val
	}
	return dsp.MaxInWindow(spec, center, half)
}
