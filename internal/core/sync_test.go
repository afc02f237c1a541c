package core

import (
	"math"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

func TestEstimateStartFindsFrame(t *testing.T) {
	p := testParams
	book, _ := NewCodeBook(p, 2)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	payload := []byte{0xAB, 0xCD}
	bits := FrameBits(payload)
	n := p.N()

	for _, trueStart := range []int{0, 37, 3*n + 5, 300} {
		rng := dsp.NewRand(int64(trueStart) + 17)
		enc := NewEncoder(p, 10)
		ch := air.NewChannel(p, rng)
		length := trueStart + (PreambleSymbols+len(bits)+2)*n
		sig := ch.Receive(length, []air.Transmission{deviceTx(enc, payload, 8, float64(trueStart)/p.SampleRate(), 0)})
		nominal := trueStart + n/3 // off by a third of a symbol
		if nominal+PreambleSymbols*n > length {
			nominal = trueStart
		}
		got := dec.EstimateStart(sig, nominal, n/2, []int{10})
		if d := got - trueStart; d < -1 || d > 1 {
			t.Errorf("trueStart=%d: estimated %d (err %d samples)", trueStart, got, d)
		}
	}
}

func TestEstimateStartMultiDevice(t *testing.T) {
	p := testParams
	book, _ := NewCodeBook(p, 2)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	payload := []byte{0x77}
	bits := FrameBits(payload)
	n := p.N()
	trueStart := 2 * n

	rng := dsp.NewRand(5)
	var txs []air.Transmission
	for i := 0; i < 8; i++ {
		enc := NewEncoder(p, book.ShiftOfSlot(i))
		txs = append(txs, deviceTx(enc, payload, 6, float64(trueStart)/p.SampleRate(), 0))
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(trueStart+(PreambleSymbols+len(bits)+2)*n, txs)
	shifts := make([]int, 8)
	for i := range shifts {
		shifts[i] = book.ShiftOfSlot(i)
	}
	got := dec.EstimateStart(sig, trueStart-n/4, n/2, shifts)
	if d := got - trueStart; d < -1 || d > 1 {
		t.Fatalf("estimated %d, want %d", got, trueStart)
	}
}

func TestMidpointOffsetsResolvesInjectedOffsets(t *testing.T) {
	p := testParams
	book, _ := NewCodeBook(p, 2)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	payload := []byte{0x0F}
	bits := FrameBits(payload)
	n := p.N()

	cases := []struct {
		shift  int
		dtBins float64 // timing offset in bins (= samples at OS 1)
		dfBins float64 // frequency offset in bins
	}{
		{shift: 8, dtBins: 0, dfBins: 0},
		{shift: 8, dtBins: 0.4, dfBins: 0},
		{shift: 8, dtBins: 0, dfBins: 0.3},
		{shift: 40, dtBins: 0.5, dfBins: -0.25},
		{shift: 120, dtBins: -0.3, dfBins: 0.2},
	}
	for _, tc := range cases {
		rng := dsp.NewRand(int64(tc.shift)*100 + 4)
		enc := NewEncoder(p, tc.shift)
		ch := air.NewChannel(p, rng)
		ch.NoisePower = 0.01 // near-clean for estimator accuracy checks
		sig := ch.Receive((PreambleSymbols+len(bits)+2)*n, []air.Transmission{
			deviceTx(enc, payload, 15, tc.dtBins/p.BW, tc.dfBins*p.BinHz()),
		})
		up, down := dec.PreamblePeaks(sig, 0)
		dtSamples, dfBins := MidpointOffsets(up, down, tc.shift, n)
		// At critical sampling, timing offset in samples == bins.
		if math.Abs(dtSamples-tc.dtBins) > 0.3 {
			t.Errorf("shift=%d dt=%.2f df=%.2f: estimated dt %.3f", tc.shift, tc.dtBins, tc.dfBins, dtSamples)
		}
		if math.Abs(dfBins-tc.dfBins) > 0.3 {
			t.Errorf("shift=%d dt=%.2f df=%.2f: estimated df %.3f bins", tc.shift, tc.dtBins, tc.dfBins, dfBins)
		}
	}
}

func TestAlignQualityPeaksAtTrueStart(t *testing.T) {
	p := testParams
	book, _ := NewCodeBook(p, 2)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	payload := []byte{0xEE}
	n := p.N()
	trueStart := n

	rng := dsp.NewRand(21)
	enc := NewEncoder(p, 16)
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(trueStart+(PreambleSymbols+len(FrameBits(payload))+2)*n,
		[]air.Transmission{deviceTx(enc, payload, 10, float64(trueStart)/p.SampleRate(), 0)})
	qTrue := dec.alignQuality(sig, trueStart)
	qOff := dec.alignQuality(sig, trueStart+n/2)
	if qTrue <= qOff {
		t.Fatalf("quality at true start %.1f <= misaligned %.1f", qTrue, qOff)
	}
}

// Ensure chirp params validate against the book used everywhere here.
func TestTestParamsValid(t *testing.T) {
	if err := testParams.Validate(); err != nil {
		t.Fatal(err)
	}
	if testParams.N() != 128 {
		t.Fatalf("N = %d, want 128", testParams.N())
	}
	if got := testParams.OOKBitRate(); math.Abs(got-976.5625) > 0.01 {
		t.Fatalf("OOK bitrate = %v", got)
	}
}

var _ = chirp.Params{} // keep import if cases change
