package core

import (
	"fmt"
	"reflect"
	"testing"

	"netscatter/internal/chirp"
)

// TestDecodeFrameEmitMatchesDecodeFrameRace pins the emit mode's core
// contract across the decodeConfigs matrix: DecodeFrameEmit (serial and
// parallel) produces FrameDecodes bit-identical to DecodeFrame —
// emitting spectra is a pure by-product — and the serial and parallel
// emitted arenas are themselves bit-identical (workers fill disjoint
// rows of the same layout). The "Race" suffix opts the test into the CI
// race-detector pass, sweeping the emit fan-out for races.
func TestDecodeFrameEmitMatchesDecodeFrameRace(t *testing.T) {
	for ci, tc := range decodeConfigs {
		t.Run(fmt.Sprintf("sf=%d/skip=%d/zeropad=%d", tc.p.SF, tc.skip, tc.zeroPad), func(t *testing.T) {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(1000+ci))
			cfg := DefaultDecoderConfig(tc.skip)
			cfg.ZeroPad = tc.zeroPad
			cfg.NoiseFloor = tc.noiseFloor

			base := NewDecoder(book, cfg)
			baseRes, err := base.DecodeFrame(sig, 0, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotDecode(baseRes)

			serial := NewDecoder(book, cfg)
			emit := make([]float64, serial.EmitLen(bitsLen))
			serialRes, err := serial.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(serialRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("serial emit decode diverges from DecodeFrame:\n got %+v\nwant %+v", got, want)
			}

			parallel := NewParallelDecoder(book, cfg, 4)
			emitPar := make([]float64, parallel.Serial().EmitLen(bitsLen))
			parRes, err := parallel.DecodeFrameEmit(sig, 0, shifts, bitsLen, emitPar)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(parRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel emit decode diverges from DecodeFrame:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(emit, emitPar) {
				t.Fatal("parallel emitted arena diverges from serial emitted arena")
			}
			if detectedCount(want) == 0 {
				t.Fatal("decoder detected no devices; test inputs are too hard")
			}
		})
	}
}

// TestEmittedSpectraMatchMaterialized pins the emit arena's contents
// against the materializing path: every emitted row must be bit-equal to
// the power spectrum chirp.Demodulator.Spectrum computes for the same
// symbol — preamble upchirp rows first, then one row per payload symbol
// (the two preamble downchirps are skipped, per the EmitRows layout).
func TestEmittedSpectraMatchMaterialized(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 16, 77)
	cfg := DefaultDecoderConfig(2)

	dec := NewDecoder(book, cfg)
	emit := make([]float64, dec.EmitLen(bitsLen))
	if _, err := dec.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit); err != nil {
		t.Fatal(err)
	}

	ref := chirp.NewDemodulator(p, cfg.ZeroPad)
	n := p.N()
	bins := ref.PaddedBins()
	if want := EmitRows(bitsLen) * bins; len(emit) != want {
		t.Fatalf("EmitLen = %d, want %d", len(emit), want)
	}
	check := func(row int, symStart int) {
		spec := ref.Spectrum(sig[symStart : symStart+n])
		got := emit[row*bins : (row+1)*bins]
		for i := range spec {
			if got[i] != spec[i] {
				t.Fatalf("row %d bin %d: emitted %v, materialized %v", row, i, got[i], spec[i])
			}
		}
	}
	for sym := 0; sym < PreambleUpSymbols; sym++ {
		check(sym, sym*n)
	}
	payloadStart := PreambleSymbols * n
	for sym := 0; sym < bitsLen; sym++ {
		check(PreambleUpSymbols+sym, payloadStart+sym*n)
	}
}

// TestDecodeFrameSpectraSingleDegeneracy pins the tentpole's k=1
// contract: decoding one AP's emitted arena through DecodeFrameSpectra
// with nSummed = 1 is bit-identical to DecodeFrame on that AP's signal
// — same floats, same bits, same flags — except the FFTs count, which
// is 0 on the spectra path (it performs no transforms of its own).
func TestDecodeFrameSpectraSingleDegeneracy(t *testing.T) {
	for ci, tc := range decodeConfigs {
		t.Run(fmt.Sprintf("sf=%d/skip=%d/zeropad=%d", tc.p.SF, tc.skip, tc.zeroPad), func(t *testing.T) {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(4000+ci))
			cfg := DefaultDecoderConfig(tc.skip)
			cfg.ZeroPad = tc.zeroPad
			cfg.NoiseFloor = tc.noiseFloor

			emitter := NewDecoder(book, cfg)
			emit := make([]float64, emitter.EmitLen(bitsLen))
			emitRes, err := emitter.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotDecode(emitRes)
			want.FFTs = 0
			want.Start = 0

			comb := NewDecoder(book, cfg)
			combRes, err := comb.DecodeFrameSpectra(emit, 1, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(combRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=1 spectra decode diverges from signal decode:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestDecodeFrameSpectraErrors covers the argument contract.
func TestDecodeFrameSpectraErrors(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, err := NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	shifts := []int{0}
	if _, err := dec.DecodeFrameSpectra(make([]float64, dec.EmitLen(8)), 0, shifts, 8); err == nil {
		t.Fatal("nSummed = 0 accepted")
	}
	if _, err := dec.DecodeFrameSpectra(make([]float64, dec.EmitLen(8)-1), 1, shifts, 8); err == nil {
		t.Fatal("short spectra arena accepted")
	}
	if _, err := dec.DecodeFrameEmit(nil, 0, shifts, 8, make([]float64, dec.EmitLen(8))); err == nil {
		t.Fatal("emit with empty signal accepted")
	}
}
