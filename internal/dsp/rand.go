package dsp

import (
	"fmt"
	"math"
	"math/rand"
)

// Rand wraps math/rand with the extra distributions the simulator needs.
// Every stochastic component in the reproduction draws from an explicitly
// seeded Rand so experiments are reproducible run-to-run.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{rand.New(rand.NewSource(seed))}
}

// Normal draws from N(mean, sigma²).
func (r *Rand) Normal(mean, sigma float64) float64 {
	return mean + sigma*r.NormFloat64()
}

// TruncNormal draws from N(mean, sigma²) truncated to [lo, hi] by
// rejection. The simulator only uses mild truncation (the bounds retain
// a non-negligible share of the mass), where the first draw almost
// always lands inside and the loop is effectively free. Extreme
// truncation is outside the contract: after 1000 rejected draws the
// result is Clamp(mean, lo, hi) — a deliberate, documented fallback so
// a pathological parameterization degrades to a deterministic in-range
// value instead of spinning. Degenerate bounds (lo > hi, or NaN) are a
// caller bug and panic.
func (r *Rand) TruncNormal(mean, sigma, lo, hi float64) float64 {
	if !(lo <= hi) {
		panic(fmt.Sprintf("dsp: TruncNormal degenerate bounds [%v, %v]", lo, hi))
	}
	for i := 0; i < 1000; i++ {
		v := r.Normal(mean, sigma)
		if v >= lo && v <= hi {
			return v
		}
	}
	return Clamp(mean, lo, hi)
}

// ComplexNormal draws a circularly symmetric complex Gaussian with total
// variance sigma2 (variance sigma2/2 per real/imaginary component). This
// is the standard model for both thermal noise and Rayleigh fading taps.
func (r *Rand) ComplexNormal(sigma2 float64) complex128 {
	s := math.Sqrt(sigma2 / 2)
	return complex(s*r.NormFloat64(), s*r.NormFloat64())
}

// UniformPhase returns e^{jθ} with θ uniform in [0, 2π).
func (r *Rand) UniformPhase() complex128 {
	theta := 2 * math.Pi * r.Float64()
	return complex(math.Cos(theta), math.Sin(theta))
}

// Uniform draws uniformly from [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Bytes fills a fresh slice of length n with random bytes.
func (r *Rand) Bytes(n int) []byte {
	b := make([]byte, n)
	r.FillBytes(b)
	return b
}

// FillBytes fills b with random bytes, drawing the same sequence Bytes
// would — callers with arenas refill in place without allocating. Each
// Uint64 draw yields eight bytes (little-endian), so a payload refill
// costs n/8 generator steps instead of one Intn per byte.
func (r *Rand) FillBytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		u := r.Uint64()
		b[i+0] = byte(u)
		b[i+1] = byte(u >> 8)
		b[i+2] = byte(u >> 16)
		b[i+3] = byte(u >> 24)
		b[i+4] = byte(u >> 32)
		b[i+5] = byte(u >> 40)
		b[i+6] = byte(u >> 48)
		b[i+7] = byte(u >> 56)
	}
	if i < len(b) {
		u := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(u)
			u >>= 8
		}
	}
}

// Bits returns n random bits, one Uint64 draw per 64 bits (consumed
// least-significant first).
func (r *Rand) Bits(n int) []byte {
	b := make([]byte, n)
	var u uint64
	for i := range b {
		if i&63 == 0 {
			u = r.Uint64()
		}
		b[i] = byte(u & 1)
		u >>= 1
	}
	return b
}

// Fork derives an independent deterministic stream from this one. Useful
// for giving every simulated device its own source while keeping a single
// top-level seed.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Int63())
}
