package radio

import (
	"fmt"
	"testing"

	"netscatter/internal/dsp"
)

// superposeNaive is the obviously correct per-element reference the
// clipped fast path must match exactly.
func superposeNaive(dst, src []complex128, offset int) int {
	n := 0
	for i, v := range src {
		j := offset + i
		if j < 0 || j >= len(dst) {
			continue
		}
		dst[j] += v
		n++
	}
	return n
}

func randComplex(rng *dsp.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = rng.ComplexNormal(1)
	}
	return out
}

// TestSuperposeClipping drives every clipping regime — fully inside,
// clipped at the front (negative offset), clipped at the tail, clipped
// on both ends (src longer than dst), entirely off either end, and
// zero-length sources — against the naive reference.
func TestSuperposeClipping(t *testing.T) {
	rng := dsp.NewRand(11)
	cases := []struct {
		name           string
		dstLen, srcLen int
		offset         int
		wantWritten    int
	}{
		{"inside", 64, 16, 10, 16},
		{"front-clip", 64, 16, -5, 11},
		{"tail-clip", 64, 16, 56, 8},
		{"both-clip", 16, 64, -8, 16},
		{"exact-fit", 32, 32, 0, 32},
		{"off-front", 64, 16, -16, 0},
		{"off-front-far", 64, 16, -1000, 0},
		{"off-tail", 64, 16, 64, 0},
		{"off-tail-far", 64, 16, 1000, 0},
		{"empty-src", 64, 0, 10, 0},
		{"empty-src-neg", 64, 0, -10, 0},
		{"empty-dst", 0, 16, 0, 0},
		{"first-sample-only", 64, 16, -15, 1},
		{"last-sample-only", 64, 16, 63, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := randComplex(rng, tc.srcLen)
			base := randComplex(rng, tc.dstLen)
			got := append([]complex128(nil), base...)
			want := append([]complex128(nil), base...)

			n := Superpose(got, src, tc.offset)
			wantN := superposeNaive(want, src, tc.offset)
			if n != tc.wantWritten || n != wantN {
				t.Fatalf("written = %d, want %d (naive %d)", n, tc.wantWritten, wantN)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: %v != naive %v", i, got[i], want[i])
				}
			}
		})
	}
}

func BenchmarkSuperpose(b *testing.B) {
	for _, n := range []int{4096, 28672} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := dsp.NewRand(1)
			dst := randComplex(rng, n+64)
			src := randComplex(rng, n)
			b.SetBytes(int64(n * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Superpose(dst, src, 17)
			}
		})
	}
}
