package choir

import (
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/css"
	"netscatter/internal/dsp"
)

// choirScenario synthesizes nDev concurrent classic-LoRa transmitters
// with the given per-device frequency offsets and returns the decode
// accuracy of the Choir decoder.
func choirScenario(t *testing.T, offsetsHz []float64, nSymbols int, seed int64) float64 {
	t.Helper()
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	rng := dsp.NewRand(seed)
	nDev := len(offsetsHz)

	modem := css.NewModem(p, 1)
	truth := make([][]int, nDev)
	var txs []air.Transmission
	for d := 0; d < nDev; d++ {
		truth[d] = make([]int, nSymbols)
		for s := range truth[d] {
			truth[d][s] = rng.Intn(p.Chips())
		}
		tx := air.WaveformTx(modem.ModulateSymbols(nil, truth[d]), p.SampleRate())
		tx.SNRdB, tx.FreqOffsetHz = 12, offsetsHz[d]
		txs = append(txs, tx)
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(nSymbols*p.N(), txs)

	dec := NewDecoder(p)
	got := dec.Decode(sig, nDev, nSymbols)

	// Match decoded streams to ground truth by best overlap: a stream
	// belongs to the device whose symbols it matches most.
	correct, total := 0, nDev*nSymbols
	for d := 0; d < nDev; d++ {
		// Expected fractional fingerprint of this device.
		best := 0
		for _, stream := range got {
			m := 0
			for s := 0; s < nSymbols; s++ {
				if stream[s] == truth[d][s] {
					m++
				}
			}
			if m > best {
				best = m
			}
		}
		correct += best
	}
	return float64(correct) / float64(total)
}

func TestChoirDecodesSeparatedRadios(t *testing.T) {
	// Three radios with well-separated fractional offsets (0.0, 0.3,
	// -0.35 bins): Choir's regime. Expect high symbol accuracy (losses
	// come only from same-shift collisions, ~2% for 3 devices at SF 7).
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	offsets := []float64{
		0.00 * p.BinHz(),
		0.30 * p.BinHz(),
		-0.35 * p.BinHz(),
	}
	acc := choirScenario(t, offsets, 40, 1)
	if acc < 0.85 {
		t.Fatalf("separated radios: accuracy %.2f, want > 0.85", acc)
	}
}

func TestChoirFailsForBackscatterOffsets(t *testing.T) {
	// The same three devices with backscatter-grade offsets (all within
	// ±0.03 bins — a 3 MHz subcarrier with tens of ppm): the
	// fingerprints collapse into one resolution cell and the decoder
	// cannot attribute symbols. This is §2.2's core argument for why
	// NetScatter cannot just reuse Choir.
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	offsets := []float64{
		0.00 * p.BinHz(),
		0.02 * p.BinHz(),
		-0.03 * p.BinHz(),
	}
	acc := choirScenario(t, offsets, 40, 2)
	if acc > 0.75 {
		t.Fatalf("backscatter offsets: accuracy %.2f — should degrade well below the radio case", acc)
	}
}

func TestChoirAccuracyDropsWithDeviceCount(t *testing.T) {
	// Even for radios, Choir degrades as devices multiply (fingerprint
	// collisions + same-shift collisions): the scaling wall NetScatter
	// removes.
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	rng := dsp.NewRand(3)
	mkOffsets := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Uniform(-0.5, 0.5) * p.BinHz()
		}
		return out
	}
	acc3 := choirScenario(t, mkOffsets(3), 30, 4)
	acc8 := choirScenario(t, mkOffsets(8), 30, 5)
	if acc8 >= acc3 {
		t.Fatalf("accuracy should drop with device count: 3 dev %.2f vs 8 dev %.2f", acc3, acc8)
	}
}

func TestClusterFracs(t *testing.T) {
	fracs := []float64{0.1, 0.11, 0.09, -0.3, -0.31, -0.29, 0.1}
	centers := clusterFracs(fracs, 0.1, 2)
	if len(centers) != 2 {
		t.Fatalf("centers = %v", centers)
	}
	if centers[0] > -0.25 || centers[0] < -0.35 {
		t.Fatalf("first center %v", centers[0])
	}
	if centers[1] < 0.05 || centers[1] > 0.15 {
		t.Fatalf("second center %v", centers[1])
	}
	if got := clusterFracs(nil, 0.1, 3); got != nil {
		t.Fatal("empty input should yield nil")
	}
}
