package exper

import (
	"fmt"
	"math"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/choir"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
	"netscatter/internal/hw"
	"netscatter/internal/radio"
)

func init() {
	register(Experiment{
		ID:    "F4",
		Title: "Choir FFT-bin variation: radios vs backscatter",
		Ref:   "Fig. 4",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "F9",
		Title: "Per-device SNR variance under office mobility",
		Ref:   "Fig. 9",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "F12",
		Title: "Near-far BER vs SNR with power-aware shift assignment",
		Ref:   "Fig. 12",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "F15A",
		Title: "Doppler effect on FFT-bin variation",
		Ref:   "Fig. 15a",
		Run:   runFig15a,
	})
	register(Experiment{
		ID:    "F15B",
		Title: "Tolerable power difference vs FFT-bin separation",
		Ref:   "Fig. 15b",
		Run:   runFig15b,
	})
	register(Experiment{
		ID:    "F16",
		Title: "Backscatter spectrum at the three power gains",
		Ref:   "Fig. 16",
		Run:   runFig16,
	})
}

func runFig4(cfg Config) (*Result, error) {
	rng := dsp.NewRand(cfg.Seed)
	p := chirp.Default500k9
	nDev, packets := 100, 20
	if cfg.Quick {
		nDev, packets = 30, 5
	}
	var radios, tags []float64
	for d := 0; d < nDev; d++ {
		// LoRa radios synthesize the full 900 MHz carrier from a
		// (TCXO-grade) crystal; backscatter tags synthesize only a
		// ~3 MHz subcarrier from a cheap crystal — the paper's 90x
		// frequency-offset argument (§2.2).
		ro := radio.NewRadioOscillator(rng, 3, 7.5)
		bo := radio.NewBackscatterOscillator(rng, 20, 50)
		for k := 0; k < packets; k++ {
			radios = append(radios, math.Abs(p.FreqOffsetToBins(ro.PacketOffsetHz(rng))))
			tags = append(tags, math.Abs(p.FreqOffsetToBins(bo.PacketOffsetHz(rng))))
		}
	}
	rc, tc := dsp.NewCDF(radios), dsp.NewCDF(tags)
	res := &Result{ID: "F4", Title: "ΔFFTbin CDF: LoRa radios vs backscatter (Fig. 4)"}
	t := Table{Columns: []string{"ΔFFTbin", "CDF radios", "CDF backscatter"}}
	for _, x := range []float64{0.1, 0.33, 0.5, 1, 2, 3, 4, 5, 6, 7} {
		t.Rows = append(t.Rows, []string{f(x), f(rc.At(x)), f(tc.At(x))})
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"backscatter variation stays below 1/3 bin for %.1f%% of packets (paper: always); radios spread across ~7 bins",
		100*tc.At(1.0/3)))
	_ = choir.FracResolution // semantic anchor: tenth-bin resolution underlies Fig. 4's axis
	return res, nil
}

func runFig9(cfg Config) (*Result, error) {
	rng := dsp.NewRand(cfg.Seed)
	steps := 1800 // 30 min at one sample per second
	if cfg.Quick {
		steps = 300
	}
	res := &Result{ID: "F9", Title: "Per-device SNR variance CDF (Fig. 9)"}
	t := Table{Columns: []string{"device", "p5[dB]", "p25[dB]", "p50[dB]", "p75[dB]", "p95[dB]"}}
	for dev := 1; dev <= 8; dev++ {
		trace := radio.SNRTrace(0, steps, 10, 0.98, rng.Fork())
		mean := dsp.Mean(trace)
		dev0 := make([]float64, len(trace))
		for i, v := range trace {
			dev0[i] = v - mean
		}
		cdf := dsp.NewCDF(dev0)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", dev),
			f(cdf.Quantile(0.05)), f(cdf.Quantile(0.25)), f(cdf.Quantile(0.50)),
			f(cdf.Quantile(0.75)), f(cdf.Quantile(0.95)),
		})
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"office fading (Ricean K=10 dB, AR(1) ρ=0.98) keeps 90% of SNR variation within roughly ±2-3 dB,",
		"the Fig. 9 band the fine-grained power adaptation is designed to track")
	return res, nil
}

// nearFarBER measures device 1's payload BER at the given SNR while
// device 2 transmits diffDB stronger at another cyclic shift, with
// Gaussian frequency mismatch on both (σ = 300 Hz, §3.2.3's simulation).
func nearFarBER(snrDB, diffDB float64, shift2, symbols int, rng *dsp.Rand) float64 {
	p := chirp.Default500k9
	book, _ := core.NewCodeBook(p, 2)
	dec := core.NewDecoder(book, core.DefaultDecoderConfig(2))
	const shift1 = 2
	batch := 96
	var errs, total int
	// Encoders, channel, transmission slots and the receive buffer are
	// hoisted out of the trial loop (the closures read the bit sections
	// through variables rewritten per trial): same rng draw order, same
	// bits, no per-trial frame-sized allocations.
	var bits1, bits2 []byte
	txs := []air.Transmission{trialTx(core.NewEncoder(p, shift1), &bits1, snrDB)}
	if diffDB > 0 {
		txs = append(txs, trialTx(core.NewEncoder(p, shift2), &bits2, snrDB+diffDB))
	}
	ch := air.NewChannel(p, rng)
	sig := make([]complex128, ch.FrameLength(core.PreambleSymbols+batch, 2))
	for total < symbols {
		bits1 = rng.Bits(batch)
		bits2 = rng.Bits(batch)
		txs[0].FreqOffsetHz = rng.Normal(0, 300)
		if diffDB > 0 {
			txs[1].FreqOffsetHz = rng.Normal(0, 300)
		}
		ch.ReceiveInto(sig, txs)
		res, err := dec.DecodeFrame(sig, 0, []int{shift1}, batch)
		if err != nil {
			return 1
		}
		dev := res.Devices[0]
		if !dev.Detected {
			errs += batch // an undetected frame loses all its bits
		} else {
			for i := range bits1 {
				if dev.Bits[i] != bits1[i] {
					errs++
				}
			}
		}
		total += batch
	}
	return float64(errs) / float64(total)
}

// trialTx is enc's template-pair transmission at snrDB whose closures
// read the frame through *bits on every receive, so a trial loop can
// swap bit sections without rebuilding it.
func trialTx(enc *core.Encoder, bits *[]byte, snrDB float64) air.Transmission {
	return air.Transmission{
		MixedTmpl: func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			return enc.FrameBitsWaveformMixedTemplates(tmpl, *bits, frac, freqHz, gain)
		},
		MixedAddRange: func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
			enc.FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, *bits, frac, freqHz)
		},
		SNRdB: snrDB,
	}
}

func runFig12(cfg Config) (*Result, error) {
	rng := dsp.NewRand(cfg.Seed)
	symbols := 10000
	if cfg.Quick {
		symbols = 960
	}
	res := &Result{ID: "F12", Title: "Near-far BER vs SNR (Fig. 12)"}
	t := Table{Columns: []string{"SNR[dB]", "single device", "+35dB", "+40dB", "+45dB"}}
	snrs := []float64{-20, -18, -16, -14, -12, -10}
	if cfg.Quick {
		snrs = []float64{-18, -14, -10}
	}
	for _, snr := range snrs {
		row := []string{f(snr)}
		for _, diff := range []float64{0, 35, 40, 45} {
			row = append(row, sci(nearFarBER(snr, diff, 258, symbols, rng)))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"device 1 at bin 2, device 2 at bin 258 (the power-aware assignment's far separation);",
		"BER stays near the single-device curve up to ~40 dB difference, degrading at 45 dB — the paper's Fig. 12 shape")
	return res, nil
}

func runFig15a(cfg Config) (*Result, error) {
	rng := dsp.NewRand(cfg.Seed)
	p := chirp.Default500k9
	samples := 100000
	if cfg.Quick {
		samples = 5000
	}
	res := &Result{ID: "F15A", Title: "Doppler effect on ΔFFTbin (Fig. 15a)"}
	t := Table{Columns: []string{"speed[m/s]", "doppler[Hz]", "1-CDF@0.5", "1-CDF@1.0", "1-CDF@1.5"}}
	for _, speed := range []float64{0, 1, 3, 5} {
		dopp := radio.DopplerShiftHz(speed, radio.CarrierHz)
		vals := make([]float64, samples)
		for i := range vals {
			osc := radio.NewBackscatterOscillator(rng, 20, 50)
			dt := hw.DefaultDelayModel.Draw(rng)
			df := osc.PacketOffsetHz(rng) + dopp
			vals[i] = math.Abs(-p.TimeOffsetToBins(dt) + p.FreqOffsetToBins(df))
		}
		cdf := dsp.NewCDF(vals)
		t.Rows = append(t.Rows, []string{
			f(speed), f(dopp),
			sci(cdf.Complementary(0.5)), sci(cdf.Complementary(1.0)), sci(cdf.Complementary(1.5)),
		})
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"at 900 MHz even 5 m/s shifts frequency by only 15 Hz (~0.015 bin), so the speed curves coincide — Fig. 15a's conclusion")
	return res, nil
}

func runFig15b(cfg Config) (*Result, error) {
	rng := dsp.NewRand(cfg.Seed)
	bits := 2000
	if cfg.Quick {
		bits = 480
	}
	const strongSNR = 20.0
	res := &Result{ID: "F15B", Title: "Tolerable power difference vs bin separation (Fig. 15b)"}
	t := Table{Columns: []string{"separation[bins]", "max ΔP[dB] @ BER<1%"}}
	seps := []int{2, 4, 8, 16, 32, 64, 128, 192, 256}
	if cfg.Quick {
		seps = []int{2, 8, 64, 256}
	}
	for _, sep := range seps {
		// Binary-search the largest power difference the weak device
		// tolerates while the strong one transmits at +strongSNR.
		lo, hi := 0.0, 45.0
		for it := 0; it < 7; it++ {
			mid := (lo + hi) / 2
			ber := weakDeviceBER(strongSNR, mid, sep, bits, rng)
			if ber < 0.01 {
				lo = mid
			} else {
				hi = mid
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", sep), f(lo)})
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"tolerance grows with separation and saturates ~35 dB mid-spectrum where the noise floor, not the strong",
		"device's side lobes, limits the weak device (paper: 35 dB max, ~5 dB at 2 bins)")
	return res, nil
}

// weakDeviceBER: strong device at bin 0 and +strongSNR; weak device at
// bin sep and strongSNR-diffDB; returns the weak device's BER.
func weakDeviceBER(strongSNR, diffDB float64, sep, symbols int, rng *dsp.Rand) float64 {
	p := chirp.Default500k9
	book, _ := core.NewCodeBook(p, 2)
	dec := core.NewDecoder(book, core.DefaultDecoderConfig(2))
	batch := 96
	var errs, total int
	// Hoisted like nearFarBER: per-trial state is the bit sections and
	// frequency offsets, not encoders, channels or buffers.
	var bitsW, bitsS []byte
	txs := []air.Transmission{
		trialTx(core.NewEncoder(p, 0), &bitsS, strongSNR),
		trialTx(core.NewEncoder(p, sep), &bitsW, strongSNR-diffDB),
	}
	ch := air.NewChannel(p, rng)
	sig := make([]complex128, ch.FrameLength(core.PreambleSymbols+batch, 2))
	for total < symbols {
		bitsW = rng.Bits(batch)
		bitsS = rng.Bits(batch)
		txs[0].FreqOffsetHz = rng.Normal(0, 300)
		txs[1].FreqOffsetHz = rng.Normal(0, 300)
		ch.ReceiveInto(sig, txs)
		res, err := dec.DecodeFrame(sig, 0, []int{sep}, batch)
		if err != nil {
			return 1
		}
		dev := res.Devices[0]
		if !dev.Detected {
			errs += batch
		} else {
			for i := range bitsW {
				if dev.Bits[i] != bitsW[i] {
					errs++
				}
			}
		}
		total += batch
	}
	return float64(errs) / float64(total)
}

func runFig16(cfg Config) (*Result, error) {
	rng := dsp.NewRand(cfg.Seed)
	p := chirp.Default500k9
	mod := chirp.NewModulator(p)
	res := &Result{ID: "F16", Title: "Backscattered spectrum at the power levels (Fig. 16)"}
	t := Table{Columns: []string{"gain setting[dB]", "in-band peak PSD[dB]", "median out-of-band[dB]"}}
	var ref float64
	for i, level := range hw.PowerLevels() {
		// A run of chirp symbols at this power level plus a light
		// noise floor.
		var wave []complex128
		for s := 0; s < 16; s++ {
			wave = mod.AppendSymbol(wave, 0)
		}
		chirp.Scale(wave, radio.AmplitudeForSNRdB(30+level.GainDB))
		noise := dsp.StreamAt(rng.Int63(), 0)
		radio.AddAWGN(&noise, wave, 1)
		psd := dsp.FFTShift(dsp.WelchPSD(wave, 512))
		_, peak := dsp.ArgmaxFloat(psd)
		peakDB := 10 * math.Log10(peak)
		if i == 0 {
			ref = peakDB
		}
		// "Out of band" proxy: median PSD (chirps sweep the whole band,
		// so the floor is the noise).
		cdf := dsp.NewCDF(psd)
		medDB := 10 * math.Log10(cdf.Quantile(0.5))
		t.Rows = append(t.Rows, []string{
			f(level.GainDB), f(peakDB - ref), f(medDB - ref),
		})
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"peak PSD steps track the 0/-4/-10 dB settings with a clean spectrum (no spurious tones) — Fig. 16's claim")
	return res, nil
}
