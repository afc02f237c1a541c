package deploy

import (
	"reflect"
	"testing"

	"netscatter/internal/dsp"
	"netscatter/internal/radio"
)

// TestGenerateBWHzContract pins the bandwidth contract: Generate always
// populates BWHz (substituting DefaultBandwidthHz for a non-positive
// input, with the SNRs computed over the substituted value), and the
// legacy fallback in bandwidth() only fires for hand-built deployments
// whose BWHz field was never set.
func TestGenerateBWHzContract(t *testing.T) {
	gen := func(bw float64, seed int64) *Deployment {
		return Generate(DefaultOffice, radio.DefaultLinkBudget, 32, bw, dsp.NewRand(seed))
	}
	if dep := gen(0, 5); dep.BWHz != DefaultBandwidthHz {
		t.Fatalf("Generate(bw=0) left BWHz = %v, want %v", dep.BWHz, DefaultBandwidthHz)
	}
	if dep := gen(-1, 5); dep.BWHz != DefaultBandwidthHz {
		t.Fatalf("Generate(bw=-1) left BWHz = %v, want %v", dep.BWHz, DefaultBandwidthHz)
	}
	// The substituted bandwidth is the one the SNRs are computed over:
	// bw=0 and bw=DefaultBandwidthHz deployments are identical.
	if a, b := gen(0, 5), gen(DefaultBandwidthHz, 5); !reflect.DeepEqual(a, b) {
		t.Fatal("Generate(bw=0) deployment differs from Generate(DefaultBandwidthHz)")
	}
	// An explicit bandwidth is respected, and PlaceAPs computes per-AP
	// SNRs over it (not the default).
	dep := gen(125e3, 5)
	if dep.BWHz != 125e3 {
		t.Fatalf("Generate(125 kHz) set BWHz = %v", dep.BWHz)
	}
	dep.PlaceAPs(2)
	for i := range dep.Devices {
		for a, l := range dep.Devices[i].APLinks {
			if want := dep.Budget.UplinkSNRdB(l.Dist, l.Walls, 0, 125e3); l.UplinkSNRdB != want {
				t.Fatalf("device %d AP %d SNR over wrong bandwidth: %v != %v", i, a, l.UplinkSNRdB, want)
			}
		}
	}
	// Legacy fallback: a hand-built deployment with BWHz unset places
	// over the paper's default bandwidth.
	legacy := &Deployment{Plan: DefaultOffice, Budget: radio.DefaultLinkBudget,
		Devices: append([]Device(nil), gen(DefaultBandwidthHz, 5).Devices...)}
	legacy.PlaceAPs(2)
	for i := range legacy.Devices {
		for a, l := range legacy.Devices[i].APLinks {
			if want := legacy.Budget.UplinkSNRdB(l.Dist, l.Walls, 0, DefaultBandwidthHz); l.UplinkSNRdB != want {
				t.Fatalf("legacy device %d AP %d SNR %v, want default-bandwidth %v", i, a, l.UplinkSNRdB, want)
			}
		}
	}
}

// TestPlaceAPsAtMatchesPlaceAPs: PlaceAPs is exactly PlaceAPsAt over
// the line placement — same APs, same links — and PlaceAPsAt copies
// its input instead of retaining it.
func TestPlaceAPsAtMatchesPlaceAPs(t *testing.T) {
	a := Generate(DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, dsp.NewRand(8))
	b := Generate(DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, dsp.NewRand(8))
	a.PlaceAPs(3)
	pts := APPositions(DefaultOffice, 3)
	b.PlaceAPsAt(pts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PlaceAPsAt(APPositions) differs from PlaceAPs")
	}
	pts[0] = Point{X: 1, Y: 1}
	if b.APs[0] == pts[0] {
		t.Fatal("PlaceAPsAt retained the caller's slice")
	}
}

// TestOptimizeAPPlacement pins the optimizer's contract across seeds
// and k ∈ {1, 2, 4, 8}: positions on the floor and pairwise distinct,
// never worse than the line placement under its own combined-PER
// surrogate, and deterministic (equal deployments yield equal
// placements).
func TestOptimizeAPPlacement(t *testing.T) {
	for _, seed := range []int64{2, 9, 31} {
		dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 256, 500e3, dsp.NewRand(seed))
		for _, k := range []int{1, 2, 4, 8} {
			pts := dep.OptimizeAPPlacement(k)
			if len(pts) != k {
				t.Fatalf("seed %d k=%d: %d positions", seed, k, len(pts))
			}
			for a, p := range pts {
				if p.X < 0.5 || p.X > dep.Plan.Width-0.5 || p.Y < 0.5 || p.Y > dep.Plan.Height-0.5 {
					t.Fatalf("seed %d k=%d AP %d outside placeable band: %+v", seed, k, a, p)
				}
				for b := 0; b < a; b++ {
					if pts[b] == p {
						t.Fatalf("seed %d k=%d: duplicate AP position %+v", seed, k, p)
					}
				}
			}
			line := APPositions(dep.Plan, k)
			if opt, base := dep.PlacementPERProxy(pts), dep.PlacementPERProxy(line); opt > base {
				t.Fatalf("seed %d k=%d: optimized proxy %v worse than line placement %v", seed, k, opt, base)
			}
			if again := dep.OptimizeAPPlacement(k); !reflect.DeepEqual(again, pts) {
				t.Fatalf("seed %d k=%d: optimizer not deterministic", seed, k)
			}
		}
	}
	// Fleets where greedy coverage plus the lattice-only climb settled
	// orders of magnitude above the line placement (e.g. seed 5, n 16:
	// 0.0062 vs 1.2e-6); the line points are candidates and a start now.
	for _, c := range []struct {
		seed int64
		n, k int
	}{{5, 16, 2}, {2, 64, 2}, {6, 192, 2}, {8, 192, 2}, {3, 256, 2}, {23, 256, 2}} {
		dep := Generate(DefaultOffice, radio.DefaultLinkBudget, c.n, 500e3, dsp.NewRand(c.seed))
		opt := dep.PlacementPERProxy(dep.OptimizeAPPlacement(c.k))
		if line := dep.PlacementPERProxy(APPositions(dep.Plan, c.k)); opt > line {
			t.Errorf("seed %d n=%d k=%d: optimized proxy %v worse than line placement %v", c.seed, c.n, c.k, opt, line)
		}
	}
}

// TestPlaceAPsOptimizedAppliesPlacement: the apply wrapper links every
// device against exactly the optimized positions.
func TestPlaceAPsOptimizedAppliesPlacement(t *testing.T) {
	dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, dsp.NewRand(12))
	want := dep.OptimizeAPPlacement(4)
	got := dep.PlaceAPsOptimized(4)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(dep.APs, want) {
		t.Fatalf("PlaceAPsOptimized placed %+v, optimizer computed %+v", dep.APs, want)
	}
	for i := range dep.Devices {
		if len(dep.Devices[i].APLinks) != 4 {
			t.Fatalf("device %d has %d links after optimized placement", i, len(dep.Devices[i].APLinks))
		}
	}
}
