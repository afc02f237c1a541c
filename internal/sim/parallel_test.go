package sim

import (
	"runtime"
	"sync"
	"testing"

	"netscatter/internal/pool"
	"netscatter/internal/simtest"
)

// TestConcurrentRunRoundRace drives several independent networks'
// RunRound simultaneously — each round internally fans waveform
// synthesis and the decode pipeline across the shared pool — so `go
// test -race` sweeps the whole parallel receive path for data races.
func TestConcurrentRunRoundRace(t *testing.T) {
	dep := simtest.Deployment(t, 16, 3)
	cfg := DefaultConfig()
	cfg.PayloadBytes = 2

	const nets = 4
	var wg sync.WaitGroup
	errs := make([]error, nets)
	stats := make([]RoundStats, nets)
	for g := 0; g < nets; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			net, err := NewNetwork(cfg, dep, 16, int64(g)+1)
			if err != nil {
				errs[g] = err
				return
			}
			for round := 0; round < 2; round++ {
				s, err := net.RunRound(16)
				if err != nil {
					errs[g] = err
					return
				}
				stats[g] = s
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("network %d: %v", g, err)
		}
	}
	for g, s := range stats {
		if s.Devices != 16 {
			t.Fatalf("network %d ran %d devices", g, s.Devices)
		}
	}
}

// TestRunRoundBitIdenticalAcrossGOMAXPROCSRace pins the tiled channel
// path's hard determinism contract at the sample level: for a fixed
// seed the composite received stream of every round — signal
// accumulation and tile-stream noise — is bit-identical across
// GOMAXPROCS ∈ {1, 2, 4}. Run under -race in CI, this simultaneously
// sweeps the template fan-out and tile workers for data races.
func TestRunRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	const nDev = 24
	const rounds = 3

	run := func(procs int) ([][]complex128, []RoundStats) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		dep := simtest.Deployment(t, nDev, 17)
		cfg := DefaultConfig()
		cfg.PayloadBytes = 3
		net, err := NewNetwork(cfg, dep, nDev, 99)
		if err != nil {
			t.Fatal(err)
		}
		var sigs [][]complex128
		var stats []RoundStats
		for r := 0; r < rounds; r++ {
			s, err := net.RunRound(nDev)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, s)
			sigs = append(sigs, append([]complex128(nil), net.rc.sigs[0]...))
		}
		return sigs, stats
	}

	wantSigs, wantStats := run(1)
	for _, procs := range []int{2, 4} {
		gotSigs, gotStats := run(procs)
		for r := range wantStats {
			if gotStats[r] != wantStats[r] {
				t.Fatalf("GOMAXPROCS=%d round %d stats diverge: %+v vs %+v",
					procs, r, gotStats[r], wantStats[r])
			}
			for i := range wantSigs[r] {
				if gotSigs[r][i] != wantSigs[r][i] {
					t.Fatalf("GOMAXPROCS=%d round %d: received stream diverges at sample %d",
						procs, r, i)
				}
			}
		}
	}
}

// TestRunRoundDeterministicAcrossGOMAXPROCS pins the parallelization
// contract: a seeded round produces identical statistics whether the
// pool has one slot or many.
func TestRunRoundDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() RoundStats {
		dep := simtest.Deployment(t, 24, 17)
		cfg := DefaultConfig()
		cfg.PayloadBytes = 3
		net, err := NewNetwork(cfg, dep, 24, 99)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := net.RunRound(24)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	if pool.Size() != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool.Size() = %d, GOMAXPROCS = %d", pool.Size(), runtime.GOMAXPROCS(0))
	}
	parallel := run()
	if serial != parallel {
		t.Fatalf("round stats differ across GOMAXPROCS:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
