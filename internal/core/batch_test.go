package core

import (
	"fmt"
	"reflect"
	"testing"

	"netscatter/internal/chirp"
)

// decodeConfigs are the (params, skip, zeroPad, noiseFloor) combinations
// the batch-vs-oracle equality is enforced over: both spreading factors
// the suite simulates, zero-pad factors from none to the deployment's 8,
// and both noise-floor modes (calibrated floor vs quantile estimation —
// the latter exercises the full-spectrum path of the preamble batch).
var decodeConfigs = []struct {
	p          chirp.Params
	skip       int
	zeroPad    int
	noiseFloor float64
}{
	{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 2, 1, 0},
	{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 2, 4, 0},
	{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 3, 8, 128},
	{chirp.Params{SF: 9, BW: 500e3, Oversample: 1}, 2, 8, 0},
	{chirp.Params{SF: 9, BW: 500e3, Oversample: 1}, 8, 2, 512},
}

// TestDecodeBatchMatchesOracleRace pins the PR's core contract: the
// batched decode path (serial and parallel) produces FrameDecodes that
// are bit-identical — every float, every bit, every flag — to the
// retained single-symbol oracle, across SF, SKIP, zero-pad and
// noise-floor combinations. The "Race" suffix opts the test into the
// CI race-detector pass, which sweeps the parallel decoder's
// symbol-batch fan-out for data races at the same time.
func TestDecodeBatchMatchesOracleRace(t *testing.T) {
	for ci, tc := range decodeConfigs {
		t.Run(fmt.Sprintf("sf=%d/skip=%d/zeropad=%d", tc.p.SF, tc.skip, tc.zeroPad), func(t *testing.T) {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(1000+ci))
			cfg := DefaultDecoderConfig(tc.skip)
			cfg.ZeroPad = tc.zeroPad
			cfg.NoiseFloor = tc.noiseFloor

			oracle := NewDecoder(book, cfg)
			oracleRes, err := oracle.decodeFrameOracle(sig, 0, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotDecode(oracleRes)

			serial := NewDecoder(book, cfg)
			serialRes, err := serial.DecodeFrame(sig, 0, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(serialRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("batched serial decode diverges from oracle:\n got %+v\nwant %+v", got, want)
			}

			parallel := NewParallelDecoder(book, cfg, 4)
			parRes, err := parallel.DecodeFrame(sig, 0, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(parRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("batched parallel decode diverges from oracle:\n got %+v\nwant %+v", got, want)
			}

			// Every path must decode at least one frame in these
			// configurations — equality against a decoder that found
			// nothing would be a hollow check.
			if detectedCount(want) == 0 {
				t.Fatal("oracle detected no devices; test inputs are too hard")
			}
		})
	}
}

// detectedCount returns how many candidates f detected.
func detectedCount(f FrameDecode) int {
	n := 0
	for _, d := range f.Devices {
		if d.Detected {
			n++
		}
	}
	return n
}

// TestDecodeBatchOracleRepeatability re-runs the batched decoder on the
// same frame twice (arena reuse) and on a second frame in between, so
// stale arena contents from a previous call can never leak into a
// result without this test catching it.
func TestDecodeBatchOracleRepeatability(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 16, 5)
	_, sig2, shifts2, bitsLen2 := buildConcurrentFrame(t, p, 2, 9, 6)

	dec := NewDecoder(book, DefaultDecoderConfig(2))
	first, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotDecode(first)
	if _, err := dec.DecodeFrame(sig2, 0, shifts2, bitsLen2); err != nil {
		t.Fatal(err)
	}
	again, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotDecode(again); !reflect.DeepEqual(got, want) {
		t.Fatalf("arena reuse changed the decode:\n got %+v\nwant %+v", got, want)
	}
}
