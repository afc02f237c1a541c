// chirpplot renders ASCII views of the distributed-CSS physical layer:
// the dechirped spectrum of one or more cyclic-shifted chirps (the
// single-FFT view the AP decodes from), with optional noise and
// per-device power offsets.
//
// Usage:
//
//	chirpplot -shifts 0,16,32 -sf 7 -bw 125000
//	chirpplot -shifts 0,4 -powers 0,-20 -snr 10
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
)

func main() {
	var (
		sf      = flag.Int("sf", 7, "spreading factor")
		bw      = flag.Float64("bw", 125e3, "bandwidth [Hz]")
		shifts  = flag.String("shifts", "0,16,48", "comma-separated cyclic shifts")
		powers  = flag.String("powers", "", "comma-separated per-shift power offsets [dB]")
		snr     = flag.Float64("snr", 20, "per-device SNR [dB]")
		noNoise = flag.Bool("clean", false, "disable noise")
		width   = flag.Int("width", 100, "plot width in columns")
		height  = flag.Int("height", 20, "plot height in rows")
		seed    = flag.Int64("seed", 1, "noise seed")
	)
	flag.Parse()

	p := chirp.Params{SF: *sf, BW: *bw, Oversample: 1}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shiftList := parseInts(*shifts)
	powerList := parseFloats(*powers)

	mod := chirp.NewModulator(p)
	var txs []air.Transmission
	for i, s := range shiftList {
		offset := 0.0
		if i < len(powerList) {
			offset = powerList[i]
		}
		tx := air.WaveformTx(mod.Symbol(s), p.SampleRate())
		tx.SNRdB = *snr + offset
		txs = append(txs, tx)
	}
	ch := air.NewChannel(p, dsp.NewRand(*seed))
	if *noNoise {
		ch.NoisePower = 0
	}
	sig := ch.Receive(p.N(), txs)

	dem := chirp.NewDemodulator(p, 8)
	spec := dem.Spectrum(sig)

	fmt.Printf("dechirped spectrum: %s, shifts %v (one FFT decodes all of them)\n", p, shiftList)
	plotDB(spec, dem.ZeroPad(), *width, *height)

	// Per-shift peak report.
	fmt.Println()
	for _, s := range shiftList {
		pw, at := chirp.PeakNear(dem, spec, s, 1)
		fmt.Printf("shift %4d: peak %8.1f dB at bin %.2f\n", s, 10*math.Log10(pw), at)
	}
	_ = core.PreambleSymbols // package linkage for documentation examples
}

func plotDB(spec []float64, zeroPad, width, height int) {
	n := len(spec)
	cols := make([]float64, width)
	for i := range cols {
		lo, hi := i*n/width, (i+1)*n/width
		max := 0.0
		for j := lo; j < hi && j < n; j++ {
			if spec[j] > max {
				max = spec[j]
			}
		}
		cols[i] = 10 * math.Log10(max+1e-12)
	}
	min, max := dsp.MinMax(cols)
	if max-min < 1 {
		max = min + 1
	}
	rows := make([][]byte, height)
	for r := range rows {
		rows[r] = []byte(strings.Repeat(" ", width))
	}
	for c, v := range cols {
		level := int((v - min) / (max - min) * float64(height-1))
		for r := 0; r <= level; r++ {
			rows[height-1-r][c] = '#'
		}
	}
	fmt.Printf("%7.1f dB\n", max)
	for _, row := range rows {
		fmt.Printf("        |%s\n", row)
	}
	fmt.Printf("%7.1f dB +%s\n", min, strings.Repeat("-", width))
	fmt.Printf("         bin 0%sbin %d\n", strings.Repeat(" ", width-12), len(spec)/zeroPad)
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad int %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad float %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
