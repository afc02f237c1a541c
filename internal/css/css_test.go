package css

import (
	"math"
	"testing"
	"testing/quick"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

var tp = chirp.Params{SF: 7, BW: 125e3, Oversample: 1}

func TestBitsSymbolsRoundTrip(t *testing.T) {
	f := func(data []byte, sfRaw uint8) bool {
		sf := int(sfRaw)%7 + 6 // 6..12
		if len(data) > 16 {
			data = data[:16]
		}
		var bits []byte
		for _, b := range data {
			for i := 7; i >= 0; i-- {
				bits = append(bits, (b>>uint(i))&1)
			}
		}
		syms := BitsToSymbols(bits, sf)
		back := SymbolsToBits(syms, sf, len(bits))
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestModemRoundTripClean(t *testing.T) {
	m := NewModem(tp, 1)
	symbols := []int{0, 1, 127, 64, 42, 99}
	wave := m.ModulateSymbols(nil, symbols)
	got, err := m.DemodulateSymbols(wave)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range symbols {
		if got[i] != s {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], s)
		}
	}
}

func TestModemRoundTripNoisy(t *testing.T) {
	// Classic LoRa at 0 dB SNR (21 dB processing gain at SF 7).
	m := NewModem(tp, 1)
	rng := dsp.NewRand(1)
	symbols := make([]int, 50)
	for i := range symbols {
		symbols[i] = rng.Intn(tp.Chips())
	}
	wave := m.ModulateSymbols(nil, symbols)
	ch := air.NewChannel(tp, rng)
	tx := air.WaveformTx(wave, tp.SampleRate())
	tx.FixedPhase = true
	sig := ch.Receive(len(wave), []air.Transmission{tx})
	got, err := m.DemodulateSymbols(sig[:len(wave)])
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range symbols {
		if got[i] != symbols[i] {
			errs++
		}
	}
	if errs > 1 {
		t.Fatalf("%d/%d symbol errors at 0 dB", errs, len(symbols))
	}
}

func TestModemQuickRoundTrip(t *testing.T) {
	m := NewModem(chirp.Params{SF: 6, BW: 125e3, Oversample: 1}, 1)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		symbols := make([]int, len(raw))
		for i, r := range raw {
			symbols[i] = int(r) % 64
		}
		wave := m.ModulateSymbols(nil, symbols)
		got, err := m.DemodulateSymbols(wave)
		if err != nil {
			return false
		}
		for i := range symbols {
			if got[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDemodulateRejectsBadLength(t *testing.T) {
	m := NewModem(tp, 1)
	if _, err := m.DemodulateSymbols(make([]complex128, tp.N()+1)); err == nil {
		t.Fatal("partial symbol accepted")
	}
}

func TestSensitivityTable1(t *testing.T) {
	// The paper's Table 1 sensitivities (the SF 6 row deviates by 2 dB
	// from the 3 dB/SF rule; see EXPERIMENTS.md).
	cases := []struct {
		p    chirp.Params
		want float64
	}{
		{chirp.Params{SF: 9, BW: 500e3, Oversample: 1}, -123},
		{chirp.Params{SF: 8, BW: 500e3, Oversample: 1}, -120},
		{chirp.Params{SF: 8, BW: 250e3, Oversample: 1}, -123},
		{chirp.Params{SF: 7, BW: 250e3, Oversample: 1}, -120},
		{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, -123},
	}
	for _, tc := range cases {
		if got := SensitivityDBm(tc.p); math.Abs(got-tc.want) > 0.6 {
			t.Errorf("sensitivity(%s) = %.1f, want %.0f", tc.p, got, tc.want)
		}
	}
}

func TestTable1ConfigsBitrates(t *testing.T) {
	for i, p := range Table1Configs() {
		want := 976.5625
		if i%2 == 1 {
			want = 1953.125
		}
		if got := p.OOKBitRate(); math.Abs(got-want) > 0.01 {
			t.Errorf("config %d bitrate = %v, want %v", i, got, want)
		}
	}
}

func TestDemodSNRFloorMonotonic(t *testing.T) {
	// Each extra SF buys sensitivity.
	for sf := 7; sf <= 12; sf++ {
		if DemodSNRFloorDB(sf) >= DemodSNRFloorDB(sf-1) {
			t.Fatalf("SNR floor not improving at SF %d", sf)
		}
	}
	if got := DemodSNRFloorDB(9); got != -12 {
		t.Fatalf("SF9 floor = %v, want -12 (anchors -123 dBm)", got)
	}
}

func TestRateTableAndBestRate(t *testing.T) {
	opts := RateTable(500e3)
	if len(opts) != 7 {
		t.Fatalf("rate table size %d", len(opts))
	}
	// High SNR picks the fastest (capped) rate.
	best, ok := BestRate(20, opts)
	if !ok || best.BitRate != MaxLoRaBitRate {
		t.Fatalf("high-SNR rate = %v", best.BitRate)
	}
	// Low SNR picks a robust slow rate.
	best, ok = BestRate(-19, opts)
	if !ok || best.Params.SF != 12 {
		t.Fatalf("low-SNR pick = SF%d", best.Params.SF)
	}
	// Below every floor: not servable.
	if _, ok := BestRate(-30, opts); ok {
		t.Fatal("-30 dB should not be servable")
	}
	// Monotonic: higher SNR never picks a slower rate.
	prev := 0.0
	for snr := -25.0; snr <= 10; snr += 0.5 {
		b, ok := BestRate(snr, opts)
		if !ok {
			continue
		}
		if b.BitRate < prev {
			t.Fatalf("rate decreased at %v dB", snr)
		}
		prev = b.BitRate
	}
}

func TestConcurrentSlopePairs(t *testing.T) {
	// §2.2: distinct-slope (BW, SF) pairs; with the paper's
	// sensitivity and bitrate constraints only a handful remain.
	bws := []float64{500e3, 250e3, 125e3}
	sfs := []int{6, 7, 8, 9, 10, 11, 12}
	all := ConcurrentSlopePairs(bws, sfs, 0, 0)
	constrained := ConcurrentSlopePairs(bws, sfs, -123, 1000)
	if len(constrained) >= len(all) {
		t.Fatalf("constraints did not reduce the set: %d vs %d", len(constrained), len(all))
	}
	if len(constrained) == 0 || len(constrained) > 8 {
		t.Fatalf("constrained set size %d, paper bounds it to ~8", len(constrained))
	}
	// All slopes distinct.
	seen := map[float64]bool{}
	for _, p := range all {
		slope := p.BW * p.BW / float64(p.Chips())
		if seen[slope] {
			t.Fatal("duplicate slope in result")
		}
		seen[slope] = true
	}
}
