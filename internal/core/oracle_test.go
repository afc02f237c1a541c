package core

import "netscatter/internal/chirp"

// decodeFrameOracle is DecodeFrame through the single-symbol pipeline —
// one chirp.Demodulator.Spectrum and one window scan per symbol, the
// original per-symbol receiver. It is the bit-exactness oracle for the
// batched path: both produce identical FrameDecodes for identical
// inputs, and the batch kernels are only allowed optimizations that
// preserve that equality.
func (d *Decoder) decodeFrameOracle(sig []complex128, start int, shifts []int, payloadBits int) (*FrameDecode, error) {
	if err := d.begin(sig, start, shifts, payloadBits); err != nil {
		return nil, err
	}
	n := d.book.Params().N()

	specs := d.dem.Spectra(sig, start, PreambleUpSymbols)
	for sym, spec := range specs {
		if d.cfg.NoiseFloor > 0 {
			d.noisePerSym[sym] = d.cfg.NoiseFloor
		} else {
			d.noisePerSym[sym], d.quantBuf = noiseQuantile(d.quantBuf, spec)
		}
	}
	noise := d.reduceNoise()
	d.accumPreamble(specs, shifts, noise)

	d.preparePayload(payloadBits)
	payloadStart := start + PreambleSymbols*n
	halfIdx := d.trackHalf()
	for sym := 0; sym < payloadBits; sym++ {
		spec := d.dem.Spectrum(sig[payloadStart+sym*n : payloadStart+(sym+1)*n])
		chirp.ScanPaddedCenters(spec, d.payCenter, halfIdx, d.scanPow)
		for i := range shifts {
			if d.payCenter[i] >= 0 {
				d.powers[i*payloadBits+sym] = d.scanPow[i]
			}
		}
	}

	d.finish(noise, payloadBits)
	d.rejectGhosts(d.devices)
	return &d.res, nil
}
