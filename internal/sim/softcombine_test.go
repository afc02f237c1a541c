package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/core"
)

func testSoftNetwork(t testing.TB, nDev, nAPs int, seed int64) *MultiAPNetwork {
	t.Helper()
	net := testMultiAPNetwork(t, nDev, nAPs, seed)
	net.SetSoftCombining(true)
	return net
}

// TestSoftCombinedSpectraOracle pins the summed arena against an
// independent materialization: for k ∈ {1, 2, 4}, the round's combined
// spectra arena must be bit-equal to naively recomputing every AP's
// power spectra symbol by symbol (fresh demodulator, single-symbol
// Spectrum — the retained oracle path) and summing them with a scalar
// += loop in the same AP order. This covers the emit layout, the fused
// kernels' emitted rows and the AVX2 power-sum kernel in one equality.
func TestSoftCombinedSpectraOracle(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			const nDev = 12
			net := testSoftNetwork(t, nDev, k, 21)
			if _, err := net.RunRound(nDev); err != nil {
				t.Fatal(err)
			}

			p := net.cfg.Params
			n := p.N()
			payloadBits := net.cfg.PayloadBytes*8 + core.CRCBits
			dcfg := resolveDecoderConfig(net.cfg, net.book.Skip())
			dem := chirp.NewDemodulator(p, dcfg.ZeroPad)
			bins := dem.PaddedBins()
			want := make([]float64, core.EmitRows(payloadBits)*bins)
			row := make([]float64, bins)
			addRow := func(dst []float64, spec []float64) {
				for i, v := range spec {
					dst[i] += v
				}
			}
			for a := 0; a < k; a++ {
				sig := net.rc.sigs[a]
				for sym := 0; sym < core.PreambleUpSymbols; sym++ {
					copy(row, dem.Spectrum(sig[sym*n:(sym+1)*n]))
					addRow(want[sym*bins:(sym+1)*bins], row)
				}
				payloadStart := core.PreambleSymbols * n
				for sym := 0; sym < payloadBits; sym++ {
					copy(row, dem.Spectrum(sig[payloadStart+sym*n:payloadStart+(sym+1)*n]))
					addRow(want[(core.PreambleUpSymbols+sym)*bins:(core.PreambleUpSymbols+sym+1)*bins], row)
				}
			}
			if !reflect.DeepEqual(net.rc.comb, want) {
				for i := range want {
					if net.rc.comb[i] != want[i] {
						t.Fatalf("k=%d: combined arena diverges from naive sum at %d: %v vs %v",
							k, i, net.rc.comb[i], want[i])
					}
				}
			}
		})
	}
}

// TestSoftCombineSingleAPDegeneracy pins the acceptance criterion's
// k=1 contract at the sim level: with one AP, the combined-spectra
// decode is bit-identical to that AP's own decode (devices, powers,
// bits, flags), and the soft round stats equal the selection stats.
func TestSoftCombineSingleAPDegeneracy(t *testing.T) {
	const nDev = 16
	net := testSoftNetwork(t, nDev, 1, 7)
	stats, err := net.RunRound(nDev)
	if err != nil {
		t.Fatal(err)
	}
	if net.rc.softRes == nil {
		t.Fatal("soft round kept no combined decode")
	}
	if !reflect.DeepEqual(net.rc.softRes.Devices, net.rc.res[0].Devices) {
		t.Fatalf("k=1 combined decode diverges from the single AP's:\n got %+v\nwant %+v",
			net.rc.softRes.Devices, net.rc.res[0].Devices)
	}
	if net.rc.softRes.NoiseBinPower != net.rc.res[0].NoiseBinPower {
		t.Fatalf("k=1 combined noise %v != single-AP %v",
			net.rc.softRes.NoiseBinPower, net.rc.res[0].NoiseBinPower)
	}
	if stats.Soft != stats.Combined {
		t.Fatalf("k=1 soft stats %+v != selection stats %+v", stats.Soft, stats.Combined)
	}
}

// TestSoftCombineLeavesSelectionUntouched: the soft path is strictly
// additive — the same network with the flag on and off produces
// bit-identical Combined and PerAP statistics round after round (no
// random draw, arena or decode is perturbed by emitting and combining).
func TestSoftCombineLeavesSelectionUntouched(t *testing.T) {
	const nDev = 24
	a := testMultiAPNetwork(t, nDev, 3, 11)
	b := testSoftNetwork(t, nDev, 3, 11)
	for round := 0; round < 3; round++ {
		sa, err := a.RunRound(nDev)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.RunRound(nDev)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Combined != sb.Combined || !reflect.DeepEqual(sa.PerAP, sb.PerAP) {
			t.Fatalf("round %d: soft flag changed selection outcome:\n off %+v\n on  %+v", round, sa, sb)
		}
		if sb.SoftFramesGained() < 0 {
			t.Fatalf("round %d: soft combining lost %d frames vs selection",
				round, -sb.SoftFramesGained())
		}
	}
}

// TestSoftCombineRunRoundSteadyStateZeroAlloc extends the round
// allocation gate to the soft path: after one warm-up round, a soft
// k-AP round — per-AP emit decodes, the bin-wise arena sum, the
// combined-spectra decode and both aggregations — touches no heap.
func TestSoftCombineRunRoundSteadyStateZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	net := testSoftNetwork(t, 16, 2, 3)
	if _, err := net.RunRound(16); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := net.RunRound(16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state soft RunRound allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSoftCombineRoundBitIdenticalAcrossGOMAXPROCSRace pins the soft
// path's determinism contract under the race detector: the emitted
// arenas are filled by pool workers, but the bin-wise sum runs serially
// in AP order, so Soft (and everything else) is bit-identical across
// GOMAXPROCS ∈ {1, 2, 4}.
func TestSoftCombineRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	const nDev = 20
	const nAPs = 2
	const rounds = 3

	type roundOut struct {
		Combined RoundStats
		Soft     RoundStats
		PerAP    []RoundStats
	}
	run := func(procs int) []roundOut {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		net := testSoftNetwork(t, nDev, nAPs, 17)
		var outs []roundOut
		for r := 0; r < rounds; r++ {
			stats, err := net.RunRound(nDev)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, roundOut{stats.Combined, stats.Soft, append([]RoundStats(nil), stats.PerAP...)})
		}
		return outs
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		for r := range want {
			if !reflect.DeepEqual(got[r], want[r]) {
				t.Fatalf("GOMAXPROCS=%d round %d diverges: %+v vs %+v", procs, r, got[r], want[r])
			}
		}
	}
}

// TestSoftCombineSurvivesAPDropout: with a dead AP mid-round, the soft
// path sums only the live arenas (stale spectra never leak in) and the
// soft stats stay no worse than selection. Exercised through a
// trajectory with AP dropout forced on.
func TestSoftCombineSurvivesAPDropout(t *testing.T) {
	const nDev = 12
	const nAPs = 3
	net := testSoftNetwork(t, nDev, nAPs, 29)
	adv := advRound{apAlive: make([]bool, nAPs)}
	// Kill AP 1; APs 0 and 2 stay live.
	adv.apAlive[0], adv.apAlive[1], adv.apAlive[2] = true, false, true
	stats, err := net.runRound(nDev, &adv)
	if err != nil {
		t.Fatal(err)
	}
	if net.rc.softRes == nil {
		t.Fatal("soft decode missing with live APs remaining")
	}
	if stats.SoftFramesGained() < 0 {
		t.Fatalf("soft lost %d frames vs selection under dropout", -stats.SoftFramesGained())
	}

	// All APs dead: no combined decode, soft degenerates to the empty
	// selection outcome.
	adv.apAlive[0], adv.apAlive[2] = false, false
	stats, err = net.runRound(nDev, &adv)
	if err != nil {
		t.Fatal(err)
	}
	if net.rc.softRes != nil {
		t.Fatal("combined decode produced with every AP dead")
	}
	if stats.Soft.FramesOK != 0 || stats.Combined.FramesOK != 0 {
		t.Fatalf("all-dead round decoded frames: %+v", stats)
	}
}

// TestSoftCombiningMemoryIndependentOfAPs pins the soft path's
// AP-count-independent decode memory. Enabling soft combining on a
// k-AP network must allocate one emit scratch plus the running sum —
// under three emit arenas' worth of bytes whatever k is, where a
// per-AP arena would cost k+1 — and the per-AP decoders must be one
// sibling family: a single serial demodulator and worker count, with
// per-AP results still distinct.
func TestSoftCombiningMemoryIndependentOfAPs(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			const nDev = 12
			net := testMultiAPNetwork(t, nDev, k, 31)
			payloadBits := net.cfg.PayloadBytes*8 + core.CRCBits
			emitBytes := uint64(8 * net.decoders[0].Serial().EmitLen(payloadBits))

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			net.SetSoftCombining(true)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got < 2*emitBytes || got >= 3*emitBytes {
				t.Fatalf("SetSoftCombining allocated %d bytes; want one emit scratch plus the sum, [%d, %d)",
					got, 2*emitBytes, 3*emitBytes)
			}
			if len(net.rc.emit) != len(net.rc.comb) {
				t.Fatalf("emit scratch %d floats, sum %d", len(net.rc.emit), len(net.rc.comb))
			}

			dem := net.decoders[0].Serial().Demodulator()
			for a, dec := range net.decoders[1:] {
				if dec.Serial().Demodulator() != dem || dec.Workers() != net.decoders[0].Workers() {
					t.Fatalf("AP %d's decoder is not a sibling of AP 0's: it has its own worker scratch", a+1)
				}
				if dec.Serial() == net.decoders[0].Serial() {
					t.Fatalf("AP %d shares AP 0's result arenas", a+1)
				}
			}
			if _, err := net.RunRound(nDev); err != nil {
				t.Fatal(err)
			}
			for a := 1; a < k; a++ {
				if net.rc.res[a] == net.rc.res[0] {
					t.Fatalf("AP %d's decode aliases AP 0's result", a)
				}
			}
		})
	}
}
