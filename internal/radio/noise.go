package radio

import (
	"math"

	"netscatter/internal/dsp"
)

// noiseBlock is the number of complex samples filled per batch draw in
// the fused AWGN pass: 2·noiseBlock float64s (4 KiB) of stack scratch,
// small enough to stay cache- and stack-resident, large enough to
// amortize the batch call.
const noiseBlock = 256

// AddAWGN adds circularly symmetric complex Gaussian noise with total
// power noisePower to sig in place, drawing from a dsp.Stream — the
// fused "fill + add" pass of the vectorized noise engine: the ziggurat
// sampler fills a small planar block, which is scaled and accumulated
// while still hot, so the per-sample cost is one batch table lookup and
// one multiply-add instead of a scaled per-sample generator call. Each
// complex sample consumes two normals, real part first, matching the
// draw order of the per-sample oracle path.
func AddAWGN(st *dsp.Stream, sig []complex128, noisePower float64) {
	s := math.Sqrt(noisePower / 2)
	var buf [2 * noiseBlock]float64
	for base := 0; base < len(sig); base += noiseBlock {
		blk := sig[base:min(base+noiseBlock, len(sig))]
		st.NormBatch(buf[: 2*len(blk) : 2*len(blk)])
		dsp.AddScaledFloats(blk, buf[:2*len(blk)], s)
	}
}

// Superpose adds src (starting at sample offset) into dst, clipping src
// to dst's bounds. It returns the number of samples written. This is how
// concurrent backscatter transmissions combine at the AP antenna.
//
// The overlap is clipped once up front so the accumulation loop carries
// no per-element bounds branch — with hundreds of concurrent frames
// this add is one of the receiver front-end's hottest loops; the add
// itself runs through dsp.AddInto's vector kernel where available
// (bit-identical to the scalar loop by the lane-independence argument
// in dsp/simd.go).
func Superpose(dst, src []complex128, offset int) int {
	lo, hi := clipRange(len(dst), len(src), offset)
	if hi <= lo {
		return 0
	}
	dsp.AddInto(dst[offset+lo:offset+hi], src[lo:hi:hi])
	return hi - lo
}

// clipRange returns the half-open range [lo, hi) of src indices that
// land inside a dst of length dstLen when src is placed at offset.
func clipRange(dstLen, srcLen, offset int) (lo, hi int) {
	lo = 0
	if offset < 0 {
		lo = -offset
	}
	hi = srcLen
	if offset+hi > dstLen {
		hi = dstLen - offset
	}
	return lo, hi
}
