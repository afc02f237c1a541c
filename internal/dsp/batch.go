package dsp

import (
	"fmt"
	"sync"
)

// BatchPlan runs the receiver's zero-pad-pruned forward FFT over a
// planar (split real/imaginary, contiguous-stride) sample layout, one
// pre-planned pass per transform. It exists for the batched receive
// path: a frame's candidate-symbol transforms all share one plan, and
// the planar float64 layout keeps the butterfly inner loops free of
// bounds checks and friendly to vectorization.
//
// Everything that the per-call pruned transform recomputes is hoisted
// into the plan:
//
//   - The prefix bit-reversal permutation is stored as an explicit swap
//     list (ForwardPruned re-derives it from the full permutation on
//     every call).
//   - Twiddle factors are repacked per butterfly stage into compact
//     planar tables, so every stage reads its twiddles at unit stride
//     instead of striding through the full-size table.
//   - The zero-pad broadcast is fused into the first butterfly stage:
//     the stage reads the two prefix values of each block directly and
//     writes the stage output, eliminating a full write+read pass over
//     the buffer.
//
// Stages are additionally executed cache-blocked: every stage whose
// butterflies fit inside a block of blockElems elements runs
// block-by-block while the block is resident in L1, leaving only the
// last log2(n/block) stages as full-array passes. Reordering butterfly
// execution never changes results — each butterfly's operands and
// operation order are identical to FFTPlan's radix-2 cascade, so a
// BatchPlan transform is bit-identical to ForwardPruned on the same
// input (the oracle the tests enforce).
//
// A BatchPlan is safe for concurrent use; transforms only read it.
type BatchPlan struct {
	n       int
	nonzero int
	z       int // zero-pad factor n/nonzero
	block   int // cache-block span in elements (power of two)
	swaps   []int32
	stages  []batchStage
}

// batchStage is one butterfly stage's compact twiddle table:
// twr[j] + i·twi[j] = e^{-2πij/size} for j in [0, size/2). The values
// are copied verbatim from the FFTPlan twiddle table (not recomputed
// from a different trig expression), keeping them bit-identical.
type batchStage struct {
	size     int
	twr, twi []float64
}

// blockElems is the cache-block span: 1024 complex elements = 16 KiB of
// planar floats, comfortably inside a 32 KiB L1d alongside the twiddle
// tables.
const blockElems = 1024

// NewBatchPlan builds a planar pruned-FFT plan for transforms of size n
// whose inputs have only the first nonzero samples populated. Both must
// be powers of two with nonzero <= n. nonzero == n degenerates to an
// unpruned planar transform.
func NewBatchPlan(n, nonzero int) *BatchPlan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: batch FFT size %d is not a power of two", n))
	}
	if !IsPow2(nonzero) || nonzero > n {
		panic(fmt.Sprintf("dsp: batch FFT nonzero prefix %d must be a power of two <= %d", nonzero, n))
	}
	src := Plan(n)
	bp := &BatchPlan{n: n, nonzero: nonzero, z: n / nonzero}

	// Prefix bit-reversal as an explicit swap list. For i < nonzero the
	// full-size permutation satisfies perm[i] = rev_m(i)·z with
	// m = nonzero, so rev_m(i) = perm[i]/z and every swap stays inside
	// the prefix (see FFTPlan.ForwardPruned).
	for i := 0; i < nonzero; i++ {
		if j := src.perm[i] / bp.z; i < j {
			bp.swaps = append(bp.swaps, int32(i), int32(j))
		}
	}

	// Compact per-stage twiddles for every stage the pruned cascade
	// runs: sizes firstSize, 2·firstSize, …, n.
	firstSize := 2 * bp.z
	if bp.z == 1 {
		firstSize = 2
	}
	for size := firstSize; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		st := batchStage{
			size: size,
			twr:  make([]float64, half),
			twi:  make([]float64, half),
		}
		for j := 0; j < half; j++ {
			w := src.twiddles[j*step]
			st.twr[j] = real(w)
			st.twi[j] = imag(w)
		}
		bp.stages = append(bp.stages, st)
	}

	bp.block = blockElems
	if bp.block > n {
		bp.block = n
	}
	if bp.block < firstSize {
		bp.block = firstSize
	}
	return bp
}

// Size returns the transform size.
func (bp *BatchPlan) Size() int { return bp.n }

// Forward computes the in-place pruned forward DFT of the planar signal
// (re, im), both of length Size(). Only the first Nonzero() entries are
// read as input; the tail is treated as zero regardless of its contents
// and is fully overwritten. The result is bit-identical to
// FFTPlan.ForwardPruned on the equivalent complex128 buffer.
func (bp *BatchPlan) Forward(re, im []float64) {
	if len(re) != bp.n || len(im) != bp.n {
		panic(fmt.Sprintf("dsp: batch FFT input lengths %d/%d do not match plan size %d", len(re), len(im), bp.n))
	}
	bp.transform(re[:bp.n], im[:bp.n])
}

// ForwardBatch computes batch consecutive pruned transforms over the
// planar buffers re and im, each transform occupying one Size()-long
// stride. len(re) and len(im) must be at least batch·Size().
func (bp *BatchPlan) ForwardBatch(re, im []float64, batch int) {
	n := bp.n
	if len(re) < batch*n || len(im) < batch*n {
		panic(fmt.Sprintf("dsp: batch FFT buffers %d/%d too short for %d transforms of %d", len(re), len(im), batch, n))
	}
	for b := 0; b < batch; b++ {
		bp.transform(re[b*n:(b+1)*n], im[b*n:(b+1)*n])
	}
}

func (bp *BatchPlan) transform(re, im []float64) {
	// Prefix bit reversal.
	sw := bp.swaps
	for k := 0; k+1 < len(sw); k += 2 {
		i, j := sw[k], sw[k+1]
		re[i], re[j] = re[j], re[i]
		im[i], im[j] = im[j], im[i]
	}
	if bp.nonzero == 1 {
		// Single nonzero input: the DFT is a constant broadcast.
		vr, vi := re[0], im[0]
		for i := range re {
			re[i] = vr
			im[i] = vi
		}
		return
	}

	// Cache-blocked stages. Blocks run back to front so the fused
	// broadcast stage never overwrites prefix values a lower block has
	// yet to read (block b's prefix reads all land strictly below its
	// own span for b >= 1, and block 0 handles its self-overlap by
	// walking its chunks backwards). Within a block — and again for the
	// full-array tail — consecutive stages run pairwise fused: one pass
	// over the data performs both stages' butterflies with the
	// intermediate values held in registers, halving loads and stores.
	nBlocks := bp.n / bp.block
	inBlock := 0
	for inBlock < len(bp.stages) && bp.stages[inBlock].size <= bp.block {
		inBlock++
	}
	for b := nBlocks - 1; b >= 0; b-- {
		base := b * bp.block
		si := 0
		if bp.z > 1 {
			bp.fusedFirstStage(re, im, base)
			si = 1
		}
		for si < inBlock {
			if si+1 < inBlock {
				bp.stagePairSpan(re, im, base, bp.block, si)
				si += 2
			} else {
				bp.stageSpan(re, im, base, bp.block, si)
				si++
			}
		}
	}
	// Remaining stages span more than one block: full-array passes,
	// still pairwise fused.
	for si := inBlock; si < len(bp.stages); {
		if si+1 < len(bp.stages) {
			bp.stagePairSpan(re, im, 0, bp.n, si)
			si += 2
		} else {
			bp.stageSpan(re, im, 0, bp.n, si)
			si++
		}
	}
}

// fusedFirstStage runs the first butterfly stage (size 2z) of the pruned
// cascade over [base, base+block), reading each 2z-chunk's pair of
// prefix values directly instead of materializing the zero-pad
// broadcast. Chunks walk backwards so the chunk at offset 0 — whose
// output overwrites the prefix entries it reads — loads them into
// locals first.
func (bp *BatchPlan) fusedFirstStage(re, im []float64, base int) {
	z := bp.z
	st := &bp.stages[0]
	twr, twi := st.twr[:z], st.twi[:z]
	if simdAVX2 && z >= 4 {
		// Whole-block kernel: the backward chunk walk, per-chunk prefix
		// broadcasts and stage-output stores run in one asm call — at
		// small z a per-chunk call spent more time in call overhead
		// than in butterflies.
		firstStageBlockAVX2(re, im, base, bp.block, twr, twi)
		return
	}
	for start := base + bp.block - 2*z; start >= base; start -= 2 * z {
		pv := start / z
		v0r, v0i := re[pv], im[pv]
		v1r, v1i := re[pv+1], im[pv+1]
		or := re[start : start+2*z]
		oi := im[start : start+2*z]
		for j := 0; j < z; j++ {
			wr, wi := twr[j], twi[j]
			tr := wr*v1r - wi*v1i
			ti := wr*v1i + wi*v1r
			or[j] = v0r + tr
			oi[j] = v0i + ti
			or[z+j] = v0r - tr
			oi[z+j] = v0i - ti
		}
	}
}

// stageSpan runs butterfly stage si over [base, base+span). The operand
// expressions mirror FFTPlan.butterflies exactly (t = w·b; b' = a − t;
// a' = a + t, with the complex products expanded in the same order), so
// results are bit-identical to the complex128 cascade.
func (bp *BatchPlan) stageSpan(re, im []float64, base, span int, si int) {
	st := &bp.stages[si]
	size := st.size
	half := size >> 1
	if simdAVX2 && half >= 4 {
		// Vector lanes run the identical expressions on independent
		// elements — bit-exact with the scalar body (see simd.go).
		for start := base; start < base+span; start += size {
			stageAVX2(
				re[start:start+half], im[start:start+half],
				re[start+half:start+size], im[start+half:start+size],
				st.twr[:half], st.twi[:half])
		}
		return
	}
	for start := base; start < base+span; start += size {
		ar := re[start : start+half : start+half]
		ai := im[start : start+half : start+half]
		br := re[start+half : start+size : start+size]
		bi := im[start+half : start+size : start+size]
		twr := st.twr[:half]
		twi := st.twi[:half]
		for j := range ar {
			wr, wi := twr[j], twi[j]
			xr, xi := br[j], bi[j]
			tr := wr*xr - wi*xi
			ti := wr*xi + wi*xr
			ur, ui := ar[j], ai[j]
			br[j] = ur - tr
			bi[j] = ui - ti
			ar[j] = ur + tr
			ai[j] = ui + ti
		}
	}
}

// stagePairSpan runs butterfly stages si and si+1 (sizes s and 2s) over
// [base, base+span) in a single pass: each group of four elements
// {a, b, c, d} = {x[j], x[j+s/2], x[j+s], x[j+3s/2]} flows through its
// two size-s butterflies and then its two size-2s butterflies entirely
// in registers before being stored. Every individual butterfly computes
// exactly the operands and operation order of stageSpan — fusing only
// reorders independent butterflies, which cannot change any value — so
// the pass stays bit-identical to running the two stages separately.
func (bp *BatchPlan) stagePairSpan(re, im []float64, base, span int, si int) {
	st1 := &bp.stages[si]
	st2 := &bp.stages[si+1]
	s := st1.size
	h := s >> 1
	if simdAVX2 && h >= 4 {
		// Same fused two-stage flow with the intermediates in vector
		// registers; bit-exact with the scalar body (see simd.go).
		for start := base; start < base+span; start += 2 * s {
			stagePairAVX2(re, im, start, h, st1.twr, st1.twi, st2.twr, st2.twi)
		}
		return
	}
	for start := base; start < base+span; start += 2 * s {
		ar := re[start+0*h : start+1*h : start+1*h]
		ai := im[start+0*h : start+1*h : start+1*h]
		br := re[start+1*h : start+2*h : start+2*h]
		bi := im[start+1*h : start+2*h : start+2*h]
		cr := re[start+2*h : start+3*h : start+3*h]
		ci := im[start+2*h : start+3*h : start+3*h]
		dr := re[start+3*h : start+4*h : start+4*h]
		di := im[start+3*h : start+4*h : start+4*h]
		w1r := st1.twr[:h]
		w1i := st1.twi[:h]
		w2ar := st2.twr[0*h : 1*h : 1*h]
		w2ai := st2.twi[0*h : 1*h : 1*h]
		w2br := st2.twr[1*h : 2*h : 2*h]
		w2bi := st2.twi[1*h : 2*h : 2*h]
		for j := range w1r {
			wr, wi := w1r[j], w1i[j]
			// Stage s, lower block: (a, b).
			xr, xi := br[j], bi[j]
			t1r := wr*xr - wi*xi
			t1i := wr*xi + wi*xr
			ur, ui := ar[j], ai[j]
			b1r := ur - t1r
			b1i := ui - t1i
			a1r := ur + t1r
			a1i := ui + t1i
			// Stage s, upper block: (c, d), same twiddle index.
			yr, yi := dr[j], di[j]
			t2r := wr*yr - wi*yi
			t2i := wr*yi + wi*yr
			vr, vi := cr[j], ci[j]
			d1r := vr - t2r
			d1i := vi - t2i
			c1r := vr + t2r
			c1i := vi + t2i
			// Stage 2s, twiddle j: (a1, c1).
			pr, pi := w2ar[j], w2ai[j]
			t3r := pr*c1r - pi*c1i
			t3i := pr*c1i + pi*c1r
			cr[j] = a1r - t3r
			ci[j] = a1i - t3i
			ar[j] = a1r + t3r
			ai[j] = a1i + t3i
			// Stage 2s, twiddle j + s/2: (b1, d1).
			qr, qi := w2br[j], w2bi[j]
			t4r := qr*d1r - qi*d1i
			t4i := qr*d1i + qi*d1r
			dr[j] = b1r - t4r
			di[j] = b1i - t4i
			br[j] = b1r + t4r
			bi[j] = b1i + t4i
		}
	}
}

// PowerSpectrumPlanar writes |re[i] + i·im[i]|² into dst using the same
// per-element expression as PowerSpectrum, so spectra computed through
// the planar batch path match the complex128 path bit for bit. The
// AVX2 body performs the identical unfused multiply, multiply, add per
// lane, so it is bit-identical to the scalar body.
func PowerSpectrumPlanar(dst, re, im []float64) {
	dst = dst[:len(re)]
	im = im[:len(re)]
	if simdAVX2 && len(re) >= 4 {
		powerPlanarAVX2(dst, re, im)
		return
	}
	powerPlanarScalar(dst, re, im)
}

func powerPlanarScalar(dst, re, im []float64) {
	for i, r := range re {
		m := im[i]
		dst[i] = r*r + m*m
	}
}

var (
	batchPlanMu    sync.Mutex
	batchPlanCache = map[[2]int]*BatchPlan{}
)

// PlanBatch returns a cached planar pruned-FFT plan for (size, nonzero),
// building it on first use. Like Plan, the cache never evicts: the
// receiver uses a handful of (padded size, symbol length) pairs per
// process.
func PlanBatch(n, nonzero int) *BatchPlan {
	key := [2]int{n, nonzero}
	batchPlanMu.Lock()
	defer batchPlanMu.Unlock()
	if bp, ok := batchPlanCache[key]; ok {
		return bp
	}
	bp := NewBatchPlan(n, nonzero)
	batchPlanCache[key] = bp
	return bp
}
