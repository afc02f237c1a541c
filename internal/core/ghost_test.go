package core

import (
	"bytes"
	"testing"

	"netscatter/internal/dsp"
)

// rejectGhostsOracle is the all-pairs reference for Decoder.rejectGhosts:
// every detected candidate, in index order, against every other
// candidate in index order, reading the other's current Detected flag
// (so an earlier demotion disqualifies a later "strong" match).
func rejectGhostsOracle(ghostFactor float64, devs []DeviceDecode) {
	if ghostFactor <= 0 {
		return
	}
	for i := range devs {
		weak := &devs[i]
		if !weak.Detected || len(weak.Bits) == 0 {
			continue
		}
		for j := range devs {
			if i == j {
				continue
			}
			strong := &devs[j]
			if !strong.Detected || len(strong.Bits) != len(weak.Bits) {
				continue
			}
			if strong.MeanPeakPower < ghostFactor*weak.MeanPeakPower {
				continue
			}
			if bytes.Equal(weak.Bits, strong.Bits) {
				weak.Detected = false
				weak.CRCOK = false
				weak.Payload = nil
				break
			}
		}
	}
}

// ghostFleet builds a candidate set whose bits come from a palette of
// `patterns` distinct bit sections (few patterns = many duplicates) and
// whose powers come from `levels` (exact GhostFactor multiples make the
// threshold comparisons land on equality).
func ghostFleet(rng *dsp.Rand, n, nBits, patterns int, levels []float64) []DeviceDecode {
	palette := make([][]byte, patterns)
	for p := range palette {
		palette[p] = make([]byte, nBits)
		for k := range palette[p] {
			palette[p][k] = byte(rng.Intn(2))
		}
	}
	devs := make([]DeviceDecode, n)
	for i := range devs {
		dev := &devs[i]
		dev.Shift = i
		dev.Detected = rng.Float64() < 0.85
		dev.MeanPeakPower = levels[rng.Intn(len(levels))]
		if !dev.Detected {
			continue
		}
		dev.Bits = append([]byte(nil), palette[rng.Intn(patterns)]...)
		if rng.Float64() < 0.1 {
			dev.Bits = dev.Bits[:nBits/2] // a shorter section never matches
		}
		if rng.Float64() < 0.7 {
			dev.CRCOK = true
			dev.Payload = []byte{byte(i)}
		}
	}
	return devs
}

func cloneFleet(devs []DeviceDecode) []DeviceDecode {
	out := make([]DeviceDecode, len(devs))
	copy(out, devs)
	return out
}

func checkGhostsMatchOracle(t *testing.T, d *Decoder, devs []DeviceDecode, label string) {
	t.Helper()
	want := cloneFleet(devs)
	rejectGhostsOracle(d.cfg.GhostFactor, want)
	got := cloneFleet(devs)
	d.rejectGhosts(got)
	for i := range want {
		w, g := want[i], got[i]
		if w.Detected != g.Detected || w.CRCOK != g.CRCOK || (w.Payload == nil) != (g.Payload == nil) {
			t.Fatalf("%s: candidate %d: got detected=%v crc=%v payload=%v, oracle detected=%v crc=%v payload=%v",
				label, i, g.Detected, g.CRCOK, g.Payload != nil, w.Detected, w.CRCOK, w.Payload != nil)
		}
	}
}

// TestRejectGhostsMatchesOracle pins the hash-chained ghost rejection
// to the all-pairs oracle on random fleets (few or many distinct
// payloads, random or GhostFactor-spaced powers) and adversarial ones:
// every candidate sharing one payload at equal power, power ladders in
// ascending and descending index order, and the empty and
// single-candidate cases. With GhostFactor ≥ 1 and positive powers the
// class's strongest member always survives, so the outcome cannot
// depend on order; zero powers and a GhostFactor below 1 are where an
// earlier demotion spares a later candidate, and both are covered. One
// decoder per factor runs every case, so arena reuse across shrinking
// and growing fleets is covered too.
func TestRejectGhostsMatchesOracle(t *testing.T) {
	for _, gf := range []float64{DefaultDecoderConfig(2).GhostFactor, 1, 0.5} {
		d := &Decoder{cfg: DefaultDecoderConfig(2)}
		d.cfg.GhostFactor = gf
		checkGhostFleets(t, d)
	}
}

func checkGhostFleets(t *testing.T, d *Decoder) {
	gf := d.cfg.GhostFactor
	rng := dsp.NewRand(21)
	ladder := []float64{0, 1, gf, gf * gf, gf * gf * gf, 0.5 * gf, 2}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		patterns := 1 + rng.Intn(8)
		if trial%3 == 0 {
			patterns = n // mostly distinct payloads
		}
		levels := ladder
		if trial%2 == 0 {
			levels = []float64{0, rng.Uniform(0.1, 10), rng.Uniform(10, 1e4), rng.Uniform(1e4, 1e7)}
		}
		checkGhostsMatchOracle(t, d, ghostFleet(rng, n, 40, patterns, levels), "random")
	}

	same := func(n int, power func(i int) float64) []DeviceDecode {
		devs := make([]DeviceDecode, n)
		for i := range devs {
			devs[i] = DeviceDecode{Shift: i, Detected: true, CRCOK: true, Payload: []byte{1},
				Bits: []byte{1, 0, 1, 1, 0, 0, 1, 0}, MeanPeakPower: power(i)}
		}
		return devs
	}
	pow := func(base float64, k int) float64 {
		v := 1.0
		for ; k > 0; k-- {
			v *= base
		}
		return v
	}
	for _, n := range []int{0, 1, 2, 3, 17, 256} {
		checkGhostsMatchOracle(t, d, same(n, func(int) float64 { return 5 }), "equal powers")
		checkGhostsMatchOracle(t, d, same(n, func(int) float64 { return 0 }), "zero powers")
		checkGhostsMatchOracle(t, d, same(n, func(i int) float64 { return pow(gf, i%5) }), "ascending ladder")
		checkGhostsMatchOracle(t, d, same(n, func(i int) float64 { return pow(gf, 4-i%5) }), "descending ladder")
		checkGhostsMatchOracle(t, d, same(n, func(i int) float64 { return float64(1 + i%2*14) }), "alternating")
	}
}

// TestRejectGhostsZeroAlloc: once its arenas reach a fleet's size, the
// ghost check allocates nothing.
func TestRejectGhostsZeroAlloc(t *testing.T) {
	d := &Decoder{cfg: DefaultDecoderConfig(2)}
	fleet := ghostFleet(dsp.NewRand(22), 256, 40, 64, []float64{1, 15, 225})
	devs := cloneFleet(fleet)
	d.rejectGhosts(devs)
	allocs := testing.AllocsPerRun(50, func() {
		copy(devs, fleet)
		d.rejectGhosts(devs)
	})
	if allocs != 0 {
		t.Fatalf("rejectGhosts allocates %v/op; want 0", allocs)
	}
}
