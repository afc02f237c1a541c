package core

import (
	"bytes"
	"fmt"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// buildConcurrentFrame synthesizes a received stream with nDev concurrent
// devices under timing/frequency offsets, returning the signal, shifts
// and payload bit length.
func buildConcurrentFrame(t testing.TB, p chirp.Params, skip, nDev int, seed int64) (*CodeBook, []complex128, []int, int) {
	t.Helper()
	book, err := NewCodeBook(p, skip)
	if err != nil {
		t.Fatal(err)
	}
	if nDev > book.Slots() {
		nDev = book.Slots()
	}
	rng := dsp.NewRand(seed)
	payloadBytes := 3
	bitsLen := payloadBytes*8 + CRCBits
	var txs []air.Transmission
	shifts := make([]int, nDev)
	for i := 0; i < nDev; i++ {
		shifts[i] = book.ShiftOfSlot(i)
		enc := NewEncoder(p, shifts[i])
		pl := rng.Bytes(payloadBytes)
		snr := rng.Uniform(3, 10)
		delay := rng.Uniform(0, 0.4) / p.BW
		txs = append(txs, deviceTx(enc, pl, snr, delay, rng.Normal(0, 200)))
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bitsLen, 2), txs)
	return book, sig, shifts, bitsLen
}

// snapshotDecode deep-copies a FrameDecode out of the decoder's arenas.
func snapshotDecode(res *FrameDecode) FrameDecode {
	out := *res
	out.Devices = make([]DeviceDecode, len(res.Devices))
	for i, dev := range res.Devices {
		cp := dev
		cp.Bits = append([]byte(nil), dev.Bits...)
		cp.Payload = append([]byte(nil), dev.Payload...)
		if dev.Payload == nil {
			cp.Payload = nil
		}
		if dev.Bits == nil {
			cp.Bits = nil
		}
		out.Devices[i] = cp
	}
	return out
}

func decodesEqual(a, b FrameDecode) error {
	if a.Start != b.Start || a.FFTs != b.FFTs || a.NoiseBinPower != b.NoiseBinPower {
		return fmt.Errorf("header mismatch: %+v vs %+v",
			FrameDecode{Start: a.Start, FFTs: a.FFTs, NoiseBinPower: a.NoiseBinPower},
			FrameDecode{Start: b.Start, FFTs: b.FFTs, NoiseBinPower: b.NoiseBinPower})
	}
	if len(a.Devices) != len(b.Devices) {
		return fmt.Errorf("device count %d vs %d", len(a.Devices), len(b.Devices))
	}
	for i := range a.Devices {
		da, db := a.Devices[i], b.Devices[i]
		if da.Shift != db.Shift || da.Detected != db.Detected || da.CRCOK != db.CRCOK ||
			da.MeanPeakPower != db.MeanPeakPower || da.ObservedBin != db.ObservedBin {
			return fmt.Errorf("device %d mismatch: %+v vs %+v", i, da, db)
		}
		if !bytes.Equal(da.Bits, db.Bits) {
			return fmt.Errorf("device %d bits differ", i)
		}
		if !bytes.Equal(da.Payload, db.Payload) {
			return fmt.Errorf("device %d payload differs", i)
		}
	}
	return nil
}

// TestParallelDecoderBitExact is the tentpole contract: the parallel
// decoder's FrameDecode must be field-for-field, bit-for-bit identical
// to the serial decoder's across seeds, SKIP values and worker counts.
func TestParallelDecoderBitExact(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	for _, skip := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, skip, 24, seed*977)
			serial := NewDecoder(book, DefaultDecoderConfig(skip))
			sres, err := serial.DecodeFrame(sig, 0, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotDecode(sres)
			for _, workers := range []int{1, 2, 4, 7} {
				par := NewParallelDecoder(book, DefaultDecoderConfig(skip), workers)
				pres, err := par.DecodeFrame(sig, 0, shifts, bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				if err := decodesEqual(want, snapshotDecode(pres)); err != nil {
					t.Fatalf("skip=%d seed=%d workers=%d: %v", skip, seed, workers, err)
				}
			}
		}
	}
}

// TestParallelDecoderCalibratedNoiseFloor covers the NoiseFloor>0 branch
// (the simulator's calibrated path) for equivalence too.
func TestParallelDecoderCalibratedNoiseFloor(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 32, 555)
	cfg := DefaultDecoderConfig(2)
	cfg.NoiseFloor = float64(p.N())
	serial := NewDecoder(book, cfg)
	sres, err := serial.DecodeFrame(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotDecode(sres)
	par := NewParallelDecoder(book, cfg, 3)
	pres, err := par.DecodeFrame(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodesEqual(want, snapshotDecode(pres)); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDecoderReuse runs the same decoder across different frame
// shapes to exercise arena regrowth and result reset.
func TestParallelDecoderReuse(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 16, 42)
	par := NewParallelDecoder(book, DefaultDecoderConfig(2), 0)
	serial := NewDecoder(book, DefaultDecoderConfig(2))

	// Shrinking candidate sets, then growing again.
	for _, k := range []int{16, 3, 1, 16} {
		sres, err := serial.DecodeFrame(sig, 0, shifts[:k], bitsLen)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotDecode(sres)
		pres, err := par.DecodeFrame(sig, 0, shifts[:k], bitsLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodesEqual(want, snapshotDecode(pres)); err != nil {
			t.Fatalf("candidates=%d: %v", k, err)
		}
	}
}

func TestParallelDecoderBoundsError(t *testing.T) {
	book, err := NewCodeBook(chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	par := NewParallelDecoder(book, DefaultDecoderConfig(2), 2)
	if _, err := par.DecodeFrame(make([]complex128, 10), 0, []int{0}, 8); err == nil {
		t.Error("out-of-bounds frame accepted")
	}
}

// TestDecodeFrameSteadyStateZeroAlloc asserts the tentpole's
// allocation-free claim as a regular test, so a regression fails tier-1
// rather than only drifting a benchmark number.
func TestDecodeFrameSteadyStateZeroAlloc(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 24, 9)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	// Warm the arenas to their high-water mark.
	if _, err := dec.DecodeFrame(sig, 0, shifts, bitsLen); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := dec.DecodeFrame(sig, 0, shifts, bitsLen); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeFrame allocates %.1f objects/op, want 0", allocs)
	}
}

// TestParallelDecoderSiblings pins the Sibling contract: k siblings
// decoding k different signals in turn equal k independent decoders
// bit for bit, each sibling's FrameDecode survives the other siblings'
// decodes (result arenas are per sibling), and the family shares one
// worker set and one preamble arena.
func TestParallelDecoderSiblings(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	cfg := DefaultDecoderConfig(2)
	type frame struct {
		book    *CodeBook
		sig     []complex128
		shifts  []int
		bitsLen int
	}
	var frames []frame
	for k, nDev := range []int{24, 9, 24, 16} {
		book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, nDev, int64(k+1)*313)
		frames = append(frames, frame{book, sig, shifts, bitsLen})
	}
	book := frames[0].book
	for _, workers := range []int{1, 2, 4} {
		family := []*ParallelDecoder{NewParallelDecoder(book, cfg, workers)}
		for len(family) < len(frames) {
			family = append(family, family[0].Sibling())
		}
		for _, sib := range family[1:] {
			if &sib.workers[0] != &family[0].workers[0] || &sib.preArena[0] != &family[0].preArena[0] {
				t.Fatalf("workers=%d: sibling does not share the worker set and preamble arena", workers)
			}
			if sib.dec == family[0].dec || sib.dec.dem != family[0].dec.dem {
				t.Fatalf("workers=%d: sibling must own its Decoder but share its demodulator", workers)
			}
		}
		for round := 0; round < 2; round++ {
			results := make([]*FrameDecode, len(frames))
			for a, f := range frames {
				res, err := family[a].DecodeFrame(f.sig, 0, f.shifts, f.bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				results[a] = res
			}
			for a, f := range frames {
				ref := NewParallelDecoder(book, cfg, workers)
				want, err := ref.DecodeFrame(f.sig, 0, f.shifts, f.bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				// results[a] was returned before the later siblings
				// decoded; it must still hold decoder a's frame.
				if err := decodesEqual(snapshotDecode(want), snapshotDecode(results[a])); err != nil {
					t.Fatalf("workers=%d round=%d sibling %d: %v", workers, round, a, err)
				}
			}
		}
	}
}

// TestParallelDecoderSiblingsZeroAlloc: a sibling family taking turns
// decodes allocation-free in steady state at the current GOMAXPROCS —
// the pool's resident helpers and the shared worker scratch add no
// per-call heap traffic.
func TestParallelDecoderSiblingsZeroAlloc(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 24, 11)
	pd := NewParallelDecoder(book, DefaultDecoderConfig(2), 0)
	family := []*ParallelDecoder{pd, pd.Sibling(), pd.Sibling()}
	emit := make([]float64, pd.Serial().EmitLen(bitsLen))
	decodeAll := func() {
		for _, dec := range family {
			if _, err := dec.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	if allocs := testing.AllocsPerRun(10, decodeAll); allocs != 0 {
		t.Fatalf("sibling decodes allocate %v/op; want 0", allocs)
	}
}
