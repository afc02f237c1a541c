package dsp

import "math"

// Stream is the simulator's batch randomness engine: a splittable,
// deterministically seedable PRNG (xoshiro256++ state derived from one
// master seed through a SplitMix64-style key hash) with a vectorizable
// ziggurat Gaussian sampler on top. It replaces per-sample
// Rand.ComplexNormal draws on the hot noise path: StreamAt carves any
// number of statistically independent streams out of a single seed, so
// parallel workers each fill their own region from their own stream and
// the composite output is independent of worker count by construction
// (the stream index names the *region*, not the worker).
//
// The math/rand-backed Rand stays as the statistical oracle; the stream
// sampler's distribution is pinned against it by moment and
// Kolmogorov–Smirnov tests (see stream_test.go).
//
// A Stream is a 32-byte value. The zero Stream is not valid; obtain one
// via NewStream or StreamAt. Streams are not safe for concurrent use —
// they are cheap values, give every goroutine its own.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// NewStream returns the stream at index 0 of seed.
func NewStream(seed int64) *Stream {
	st := StreamAt(seed, 0)
	return &st
}

// StreamAt derives the i-th stream of seed: a deterministic function of
// (seed, i) only. Distinct indices yield decorrelated generators — the
// xoshiro state words come from a SplitMix64 sequence whose origin is a
// full-avalanche hash of both inputs, so streams at related indices
// (i, i+1, …) share no state-word positions the way a naive
// seed+i·gamma derivation would.
func StreamAt(seed int64, i uint64) Stream {
	x := mix64(uint64(seed))
	x ^= mix64(i + 0x9e3779b97f4a7c15)
	x = mix64(x)
	var st Stream
	st.s0 = splitmix64(&x)
	st.s1 = splitmix64(&x)
	st.s2 = splitmix64(&x)
	st.s3 = splitmix64(&x)
	if st.s0|st.s1|st.s2|st.s3 == 0 {
		// The all-zero xoshiro state is absorbing; unreachable in
		// practice but cheap to exclude outright.
		st.s0 = 0x9e3779b97f4a7c15
	}
	return st
}

// splitmix64 advances x by the golden-ratio increment and returns the
// finalized output — Vigna's canonical seeding generator.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 is the SplitMix64 output finalizer alone: a bijective
// full-avalanche mix of one word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl64(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniform bits (xoshiro256++).
func (st *Stream) Uint64() uint64 {
	s0, s1, s2, s3 := st.s0, st.s1, st.s2, st.s3
	res := rotl64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl64(s3, 45)
	st.s0, st.s1, st.s2, st.s3 = s0, s1, s2, s3
	return res
}

// Float64 returns a uniform draw from [0, 1) with 53 random bits.
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) * 0x1p-53
}

// Ziggurat tables for the standard normal (Marsaglia & Tsang layout,
// zigLayers rectangles). Layer magnitudes are compared as 52-bit
// integers so the fast path is one table lookup, one compare and one
// multiply per sample; 52 bits keeps the uint64→float64 conversion
// exact.
const (
	zigLayers = 128
	zigR      = 3.442619855899      // right edge of the base layer
	zigV      = 9.91256303526217e-3 // area of each layer
	zigM      = 1 << 52             // integer magnitude scale
)

var (
	zigK [zigLayers]uint64  // fast-path acceptance thresholds
	zigW [zigLayers]float64 // magnitude → x scale per layer
	zigF [zigLayers]float64 // f(x_i) = exp(-x_i²/2) per layer
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	dn, tn := zigR, zigR
	q := zigV / f(dn)
	zigK[0] = uint64(dn / q * zigM)
	zigK[1] = 0
	zigW[0] = q / zigM
	zigW[zigLayers-1] = dn / zigM
	zigF[0] = 1
	zigF[zigLayers-1] = f(dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+f(dn)))
		zigK[i+1] = uint64(dn / tn * zigM)
		tn = dn
		zigW[i] = dn / zigM
		zigF[i] = f(dn)
	}
}

// zigSplit extracts the ziggurat draw from one uniform word: the layer
// index from the low bits and a signed 53-bit magnitude from the high
// bits (arithmetic shift, so the sign rides the top bit and the
// scale multiply needs no branch — mispredicting a uniformly random
// sign branch would cost more than the whole fast path).
func zigSplit(u uint64) (i uint64, j int64, mag uint64) {
	i = u & (zigLayers - 1)
	j = int64(u) >> 11
	m := uint64(j >> 63)
	mag = (uint64(j) ^ m) - m // |j|, branch-free
	return
}

// NormFloat64 returns a standard normal draw via the ziggurat: one
// Uint64 covers the layer index, sign and 52-bit magnitude; ~98.8% of
// draws accept immediately.
func (st *Stream) NormFloat64() float64 {
	u := st.Uint64()
	i, j, mag := zigSplit(u)
	if mag < zigK[i] {
		return float64(j) * zigW[i]
	}
	return st.normSlow(u)
}

// normSlow finishes a draw whose first Uint64 u fell outside the fast
// path: the base-layer tail or a wedge rejection test, redrawing until
// acceptance.
func (st *Stream) normSlow(u uint64) float64 {
	src := zigSource{st: st}
	return normSlowSrc(u, &src)
}

// zigSource supplies the slow path's uniform words: buffered lookahead
// words first (words the batch driver generated but the vector kernel
// did not consume), then the live stream. The buffer is always a
// prefix of the stream's own future output — it was filled by
// advancing the real state — so draining it and falling through to
// Uint64 reproduces the exact word sequence sequential NormFloat64
// calls would see.
type zigSource struct {
	st  *Stream
	buf []uint64
	pos int
}

func (s *zigSource) next() uint64 {
	if s.pos < len(s.buf) {
		u := s.buf[s.pos]
		s.pos++
		return u
	}
	return s.st.Uint64()
}

// float64 mirrors Stream.Float64 word for word and expression for
// expression, so slow-path draws through a buffered source are
// bit-identical to the struct method. float64Open is the same draw
// moved into (0, 1) — never exactly 0 — for the tail's logarithms.
func (s *zigSource) float64() float64     { return float64(s.next()>>11) * 0x1p-53 }
func (s *zigSource) float64Open() float64 { return (float64(s.next()>>11) + 0.5) * 0x1p-53 }

// normSlowSrc is normSlow over an arbitrary word source — the one
// implementation both the sequential and the batch path use.
func normSlowSrc(u uint64, src *zigSource) float64 {
	for {
		i, j, mag := zigSplit(u)
		x := float64(j) * zigW[i]
		switch {
		case mag < zigK[i]:
			// Only reachable on redraws.
			return x
		case i == 0:
			// Base-layer tail beyond R (Marsaglia's exact method).
			var tail float64
			for {
				tail = -math.Log(src.float64Open()) / zigR
				y := -math.Log(src.float64Open())
				if y+y >= tail*tail {
					break
				}
			}
			if j < 0 {
				return -(zigR + tail)
			}
			return zigR + tail
		default:
			// Wedge between layer i and the density curve.
			if zigF[i]+src.float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
				return x
			}
		}
		u = src.next()
	}
}

// NormComplex returns a circularly symmetric complex Gaussian draw with
// total variance sigma2 — the stream engine's analogue of
// Rand.ComplexNormal (real part drawn first, then imaginary, each with
// variance sigma2/2). This is the draw the trajectory layer's evolved
// channel state (correlated fading innovations) is built on.
func (st *Stream) NormComplex(sigma2 float64) complex128 {
	s := math.Sqrt(sigma2 / 2)
	re := st.NormFloat64() * s
	im := st.NormFloat64() * s
	return complex(re, im)
}

// UniformPhase returns e^{jθ} with θ uniform over [0, 2π) — a unit
// complex number with uniformly random phase.
func (st *Stream) UniformPhase() complex128 {
	theta := st.Float64() * 2 * math.Pi
	return complex(math.Cos(theta), math.Sin(theta))
}

// zigBlock is the block depth of the vectorized NormBatch driver: how
// many samples (and so at most how many lookahead uniform words) one
// kernel call covers. Each output sample consumes at least one word,
// so a block of min(zigBlock, samples remaining) words can never
// overrun the sequential draw order — every generated word is
// consumed before the destination fills.
const zigBlock = 512

// NormBatch fills dst with standard normal draws — the same sequence
// len(dst) successive NormFloat64 calls would produce (test-enforced),
// with the generator and ziggurat fast path inlined into one planar
// fill loop. On AVX2 the whole fast path runs in one fused kernel
// (zigFillAVX2): xoshiro word generation in integer registers
// overlapped with the four-lane acceptance test, conversion and scale
// multiply. Rejections and sub-quad tails fall back to the scalar
// expressions, replaying the kernel's already-generated words from
// its side buffer so the word-consumption order — and therefore every
// output bit — matches the sequential path exactly. This is the batch
// primitive the fused AWGN path is built on.
func (st *Stream) NormBatch(dst []float64) {
	if !simdAVX2 || len(dst) < 8 {
		st.normBatchScalar(dst)
		return
	}
	var buf [zigBlock]uint64
	idx := 0
	for idx < len(dst) {
		quads := min(zigBlock, len(dst)-idx) >> 2
		if quads == 0 {
			// Fewer than four samples left: finish sequentially.
			for ; idx < len(dst); idx++ {
				dst[idx] = st.NormFloat64()
			}
			return
		}
		c := zigFillAVX2(dst[idx:idx+quads*4], buf[:quads*4], st, &zigK[0], &zigW[0])
		idx += c
		if c == quads*4 {
			continue
		}
		// The kernel stopped on a rejection at generated word c, with
		// the generator state advanced through that word's whole quad.
		// Replay the rejecting word and the quad's remaining lookahead
		// words in scalar code; slow-path redraws drain the lookahead
		// first and then fall through to the live stream, which is
		// positioned exactly where the sequential order demands.
		src := zigSource{st: st, buf: buf[:c&^3+4], pos: c}
		for src.pos < len(src.buf) {
			u := src.next()
			i, j, mag := zigSplit(u)
			if mag < zigK[i] {
				dst[idx] = float64(j) * zigW[i]
			} else {
				dst[idx] = normSlowSrc(u, &src)
			}
			idx++
		}
	}
}

// normBatchScalar is the portable NormBatch body: generator and
// ziggurat fast path inlined into one fill loop.
func (st *Stream) normBatchScalar(dst []float64) {
	s0, s1, s2, s3 := st.s0, st.s1, st.s2, st.s3
	for idx := range dst {
		res := rotl64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl64(s3, 45)

		i, j, mag := zigSplit(res)
		if mag < zigK[i] {
			dst[idx] = float64(j) * zigW[i]
			continue
		}
		// Slow path: hand the advanced state back to the struct, finish
		// the draw there, and reload.
		st.s0, st.s1, st.s2, st.s3 = s0, s1, s2, s3
		dst[idx] = st.normSlow(res)
		s0, s1, s2, s3 = st.s0, st.s1, st.s2, st.s3
	}
	st.s0, st.s1, st.s2, st.s3 = s0, s1, s2, s3
}
