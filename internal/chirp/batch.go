package chirp

import (
	"fmt"

	"netscatter/internal/dsp"
)

// Batched receive front-end. The per-symbol receiver cost is one
// dechirp, one zero-pad-pruned FFT and one spectrum read-off; the batch
// kernels below run a whole run of candidate symbols through those
// stages in one pre-planned pass over a planar (split real/imaginary)
// buffer — the layout dsp.BatchPlan's bounds-check-free butterfly loops
// operate on. Results are bit-identical to the single-symbol
// Spectrum/ScanPaddedCenters path, which the decoder's tests keep as
// its exactness oracle (decodeFrameOracle in internal/core).

// batchTile bounds how many symbols are dechirped into the planar
// scratch per ForwardBatch pass: 8 symbols of a 4096-bin padded
// transform are 512 KiB of planar floats — enough to amortize per-pass
// overhead while keeping the scratch's cache footprint bounded.
const batchTile = 8

// batchPlan returns the demodulator's planar pruned-FFT plan, building
// it on first use (the plan itself is cached process-wide).
func (d *Demodulator) batchPlan() *dsp.BatchPlan {
	if d.bplan == nil {
		d.bplan = dsp.PlanBatch(len(d.padBuf), d.p.N())
	}
	return d.bplan
}

// growBatch sizes the planar scratch for a tile of nSyms symbols.
func (d *Demodulator) growBatch(nSyms int) {
	m := nSyms * len(d.padBuf)
	if cap(d.batchRe) < m {
		d.batchRe = make([]float64, m)
		d.batchIm = make([]float64, m)
	}
	d.batchRe = d.batchRe[:m]
	d.batchIm = d.batchIm[:m]
}

// dechirpTile writes the dechirped products of count consecutive
// symbols (symbol indices firstSym, firstSym+1, … relative to sample
// index start) into the planar scratch prefixes and runs the batched
// pruned transform over them. Only the first N entries of each
// padN-long stride are written — the pruned transform treats the tail
// as zero without reading it.
func (d *Demodulator) dechirpTile(sig []complex128, start, firstSym, count int) {
	n := d.p.N()
	padN := len(d.padBuf)
	down := d.down
	for s := 0; s < count; s++ {
		sym := sig[start+(firstSym+s)*n : start+(firstSym+s+1)*n]
		re := d.batchRe[s*padN : s*padN+n]
		im := d.batchIm[s*padN : s*padN+n]
		dsp.Dechirp(re, im, sym, down[:n])
	}
	d.batchPlan().ForwardBatch(d.batchRe, d.batchIm, count)
}

// SpectraBatch computes the power spectra of nSyms consecutive symbols
// of sig beginning at sample index start through the planar batch
// pipeline, returning one PaddedBins()-long slice per symbol. Spectra
// live in the same reused arena as Spectra (valid until the next
// Spectra/SpectraBatch call) and are bit-identical to what Spectrum
// produces symbol by symbol.
func (d *Demodulator) SpectraBatch(sig []complex128, start, nSyms int) [][]float64 {
	m := len(d.padBuf)
	if cap(d.arena) < nSyms*m {
		d.arena = make([]float64, nSyms*m)
		d.arenaOuts = make([][]float64, 0, nSyms)
	}
	d.arena = d.arena[:nSyms*m]
	d.arenaOuts = d.arenaOuts[:0]
	d.SpectraBatchInto(d.arena, sig, start, nSyms)
	for s := 0; s < nSyms; s++ {
		d.arenaOuts = append(d.arenaOuts, d.arena[s*m:(s+1)*m])
	}
	return d.arenaOuts
}

// SpectraBatchInto is SpectraBatch writing the nSyms power spectra into
// caller-owned storage (len(dst) >= nSyms·PaddedBins()) — the parallel
// decoder's workers fill disjoint sections of one shared arena, a whole
// symbol batch per work item.
func (d *Demodulator) SpectraBatchInto(dst []float64, sig []complex128, start, nSyms int) {
	n := d.p.N()
	padN := len(d.padBuf)
	if start < 0 || start+nSyms*n > len(sig) {
		panic(fmt.Sprintf("chirp: SpectraBatch window [%d, %d) outside signal of %d samples",
			start, start+nSyms*n, len(sig)))
	}
	if len(dst) < nSyms*padN {
		panic(fmt.Sprintf("chirp: SpectraBatch dst length %d, want at least %d", len(dst), nSyms*padN))
	}
	d.growBatch(min(nSyms, batchTile))
	for lo := 0; lo < nSyms; lo += batchTile {
		count := min(batchTile, nSyms-lo)
		d.dechirpTile(sig, start, lo, count)
		for s := 0; s < count; s++ {
			dsp.PowerSpectrumPlanar(dst[(lo+s)*padN:(lo+s+1)*padN],
				d.batchRe[s*padN:(s+1)*padN], d.batchIm[s*padN:(s+1)*padN])
		}
	}
}

// ScanBatch fuses the payload tracker's per-symbol pipeline: it
// dechirps and transforms symbols [firstSym, firstSym+nSyms) of the
// frame section starting at sample index start, then scans each
// candidate's ±half padded-bin window and writes the peak power of
// candidate i at symbol s into out[i·stride + s] — candidate-major,
// directly into the decoder's power arena, with no intermediate power
// spectrum ever materialized (window powers are read straight off the
// planar transform). Negative centers skip their candidate, leaving the
// arena untouched, exactly like ScanPaddedCenters.
func (d *Demodulator) ScanBatch(sig []complex128, start, firstSym, nSyms int, centers []int, half int, out []float64, stride int) {
	n := d.p.N()
	padN := len(d.padBuf)
	if start < 0 || start+(firstSym+nSyms)*n > len(sig) {
		panic(fmt.Sprintf("chirp: ScanBatch window [%d, %d) outside signal of %d samples",
			start+firstSym*n, start+(firstSym+nSyms)*n, len(sig)))
	}
	d.growBatch(min(nSyms, batchTile))
	for lo := 0; lo < nSyms; lo += batchTile {
		count := min(batchTile, nSyms-lo)
		d.dechirpTile(sig, start, firstSym+lo, count)
		for s := 0; s < count; s++ {
			re := d.batchRe[s*padN : (s+1)*padN]
			im := d.batchIm[s*padN : (s+1)*padN]
			col := firstSym + lo + s
			for i, c := range centers {
				if c < 0 {
					continue
				}
				out[i*stride+col] = planarWindowPower(re, im, c, half)
			}
		}
	}
}

// ScanBatchEmit is ScanBatch with the power spectra kept: besides the
// fused dechirp+FFT+window scan, the power spectrum of symbol column
// col = firstSym+lo+s is materialized into
// emit[col·PaddedBins() : (col+1)·PaddedBins()] through the same
// dsp.PowerSpectrumPlanar kernel SpectraBatchInto uses, so the emitted
// rows are bit-identical to the spectra the fused kernel would
// otherwise discard. The scan output in out is untouched relative to
// ScanBatch; emitting is a pure by-product. The soft cross-AP combiner
// sums emitted arenas across APs before one combined decode.
func (d *Demodulator) ScanBatchEmit(sig []complex128, start, firstSym, nSyms int, centers []int, half int, out []float64, stride int, emit []float64) {
	n := d.p.N()
	padN := len(d.padBuf)
	if start < 0 || start+(firstSym+nSyms)*n > len(sig) {
		panic(fmt.Sprintf("chirp: ScanBatchEmit window [%d, %d) outside signal of %d samples",
			start+firstSym*n, start+(firstSym+nSyms)*n, len(sig)))
	}
	if len(emit) < (firstSym+nSyms)*padN {
		panic(fmt.Sprintf("chirp: ScanBatchEmit emit length %d, want at least %d", len(emit), (firstSym+nSyms)*padN))
	}
	d.growBatch(min(nSyms, batchTile))
	for lo := 0; lo < nSyms; lo += batchTile {
		count := min(batchTile, nSyms-lo)
		d.dechirpTile(sig, start, firstSym+lo, count)
		for s := 0; s < count; s++ {
			re := d.batchRe[s*padN : (s+1)*padN]
			im := d.batchIm[s*padN : (s+1)*padN]
			col := firstSym + lo + s
			dsp.PowerSpectrumPlanar(emit[col*padN:(col+1)*padN], re, im)
			for i, c := range centers {
				if c < 0 {
					continue
				}
				out[i*stride+col] = planarWindowPower(re, im, c, half)
			}
		}
	}
}

// planarWindowPower returns the maximum |X[k]|² in the circular window
// [center-half, center+half] of the planar spectrum (re, im). Window
// powers use the exact PowerSpectrum expression and the exact windowMax
// scan order, so the result is bit-identical to materializing the power
// spectrum and calling windowMax on it.
func planarWindowPower(re, im []float64, center, half int) float64 {
	n := len(re)
	lo, hi := center-half, center+half
	if lo >= 0 && hi < n {
		// Contiguous window: dsp's max-power kernel (AVX2 with a
		// bit-identical scalar fallback).
		return dsp.MaxPower(re[lo:hi+1], im[lo:hi+1])
	}
	// Boundary-straddling window: mirror dsp.MaxInWindow's walk.
	val := 0.0
	first := true
	for off := -half; off <= half; off++ {
		i := dsp.WrapIndex(center+off, n)
		r, m := re[i], im[i]
		p := r*r + m*m
		if first || p > val {
			val = p
			first = false
		}
	}
	return val
}
