package sim

// Per-round pins for the single-AP network. The literals below were
// generated by the single-AP round path that predates the one-AP
// MultiAPNetwork, so they hold NewNetwork's rounds to that path bit for
// bit — in the four association/channel regimes the network supports
// and with the AP off the floor centre — at every worker count.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/pool"
	"netscatter/internal/radio"
	"netscatter/internal/simtest"
)

// pinRounds is the round count each pinned configuration runs.
const pinRounds = 12

// pinCase is one pinned network configuration.
type pinCase struct {
	name  string
	plan  deploy.FloorPlan
	tweak func(*Config)
}

// pinCases are the pinned configurations: the default (power-aware
// allocation), fading on, arrival-order allocation, power control off,
// and the default again with the AP moved off the floor centre.
func pinCases() []pinCase {
	offCentre := deploy.DefaultOffice
	offCentre.AP = deploy.Point{X: 9, Y: 6}
	return []pinCase{
		{"power-aware", deploy.DefaultOffice, func(*Config) {}},
		{"fading", deploy.DefaultOffice, func(c *Config) { c.Fading = true }},
		{"arrival-order", deploy.DefaultOffice, func(c *Config) { c.PowerAwareAllocation = false }},
		{"no-power-control", deploy.DefaultOffice, func(c *Config) { c.DisablePowerControl = true }},
		{"off-centre-ap", offCentre, func(*Config) {}},
	}
}

// pinNetworkConfig is the light configuration the pins run: SF 7 at
// 125 kHz, two payload bytes, and the case's tweak.
func pinNetworkConfig(pc pinCase) Config {
	cfg := DefaultConfig()
	cfg.Params = simtest.SmallParams()
	cfg.PayloadBytes = 2
	pc.tweak(&cfg)
	return cfg
}

// pinDeployment generates the case's 40-device office.
func pinDeployment(pc pinCase) *deploy.Deployment {
	return deploy.Generate(pc.plan, radio.DefaultLinkBudget, 40, simtest.BandwidthHz, dsp.NewRand(17))
}

// pinDevices is round r's device count: the full fleet, then subsets.
func pinDevices(r int) int { return 40 - 3*(r%4) }

// runPinned runs the case's pinRounds rounds of NewNetwork.
func runPinned(t *testing.T, pc pinCase) []RoundStats {
	t.Helper()
	net, err := NewNetwork(pinNetworkConfig(pc), pinDeployment(pc), 40, 23)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]RoundStats, pinRounds)
	for r := range out {
		if out[r], err = net.RunRound(pinDevices(r)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// pinRound is one pinned round; every pinned configuration shares the
// round and payload durations.
func pinRound(devices, detected, framesOK, bitErrors, totalBits, scheduledBits int) RoundStats {
	return RoundStats{
		Devices: devices, Detected: detected, FramesOK: framesOK,
		BitErrors: bitErrors, TotalBits: totalBits, ScheduledBits: scheduledBits,
		RoundSecs: 0.032968, PayloadSec: 0.024576,
	}
}

// pinnedRounds holds the generated per-round statistics, by case.
var pinnedRounds = map[string][]RoundStats{
	"power-aware": {
		pinRound(40, 40, 28, 30, 960, 960),
		pinRound(37, 37, 29, 21, 888, 888),
		pinRound(34, 34, 27, 13, 816, 816),
		pinRound(31, 31, 28, 8, 744, 744),
		pinRound(40, 40, 32, 16, 960, 960),
		pinRound(37, 37, 29, 12, 888, 888),
		pinRound(34, 34, 28, 18, 816, 816),
		pinRound(31, 31, 30, 1, 744, 744),
		pinRound(40, 40, 35, 15, 960, 960),
		pinRound(37, 37, 28, 15, 888, 888),
		pinRound(34, 34, 27, 19, 816, 816),
		pinRound(31, 31, 26, 7, 744, 744),
	},
	"fading": {
		pinRound(40, 40, 30, 40, 960, 960),
		pinRound(37, 37, 29, 25, 888, 888),
		pinRound(34, 34, 29, 16, 816, 816),
		pinRound(31, 31, 29, 4, 744, 744),
		pinRound(40, 40, 31, 30, 960, 960),
		pinRound(37, 37, 25, 69, 888, 888),
		pinRound(34, 34, 25, 37, 816, 816),
		pinRound(31, 31, 27, 10, 744, 744),
		pinRound(40, 40, 29, 57, 960, 960),
		pinRound(37, 37, 30, 13, 888, 888),
		pinRound(34, 34, 29, 10, 816, 816),
		pinRound(31, 31, 30, 1, 744, 744),
	},
	"arrival-order": {
		pinRound(40, 37, 24, 119, 888, 960),
		pinRound(37, 35, 24, 103, 840, 888),
		pinRound(34, 33, 21, 112, 792, 816),
		pinRound(31, 29, 19, 76, 696, 744),
		pinRound(40, 37, 25, 110, 888, 960),
		pinRound(37, 33, 24, 82, 792, 888),
		pinRound(34, 31, 21, 76, 744, 816),
		pinRound(31, 28, 20, 74, 672, 744),
		pinRound(40, 36, 26, 119, 864, 960),
		pinRound(37, 35, 24, 115, 840, 888),
		pinRound(34, 31, 21, 102, 744, 816),
		pinRound(31, 27, 20, 73, 648, 744),
	},
	"no-power-control": {
		pinRound(40, 40, 27, 45, 960, 960),
		pinRound(37, 37, 28, 31, 888, 888),
		pinRound(34, 34, 26, 19, 816, 816),
		pinRound(31, 31, 27, 19, 744, 744),
		pinRound(40, 40, 31, 38, 960, 960),
		pinRound(37, 37, 28, 17, 888, 888),
		pinRound(34, 34, 26, 31, 816, 816),
		pinRound(31, 31, 28, 5, 744, 744),
		pinRound(40, 40, 35, 18, 960, 960),
		pinRound(37, 37, 27, 29, 888, 888),
		pinRound(34, 34, 26, 25, 816, 816),
		pinRound(31, 31, 26, 7, 744, 744),
	},
	"off-centre-ap": {
		pinRound(40, 40, 11, 217, 960, 960),
		pinRound(37, 37, 18, 174, 888, 888),
		pinRound(34, 34, 16, 180, 816, 816),
		pinRound(31, 31, 15, 146, 744, 744),
		pinRound(40, 40, 17, 207, 960, 960),
		pinRound(37, 37, 15, 187, 888, 888),
		pinRound(34, 34, 17, 155, 816, 816),
		pinRound(31, 31, 17, 139, 744, 744),
		pinRound(40, 40, 18, 219, 960, 960),
		pinRound(37, 37, 14, 194, 888, 888),
		pinRound(34, 34, 18, 169, 816, 816),
		pinRound(31, 31, 17, 146, 744, 744),
	},
}

// TestNetworkRoundsPinned holds every round of every pinned
// configuration to its committed literal at GOMAXPROCS 1, 2 and 4.
func TestNetworkRoundsPinned(t *testing.T) {
	for _, pc := range pinCases() {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", pc.name, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				got := runPinned(t, pc)
				want := pinnedRounds[pc.name]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rounds diverge from the pin; got:\n%#v", got)
				}
			})
		}
	}
}

// TestConcurrentNetworksShareDeployment builds networks concurrently
// over one shared generated deployment, the way the experiment sweeps
// do (one network per pool unit), and checks that construction leaves
// the deployment untouched and that every network runs its serial
// rounds. Run under -race it checks that NewNetwork only reads the
// deployment.
func TestConcurrentNetworksShareDeployment(t *testing.T) {
	pc := pinCases()[len(pinCases())-1] // the off-centre AP
	cfg := pinNetworkConfig(pc)
	dep := pinDeployment(pc)
	before := *dep
	before.APs = append([]deploy.Point(nil), dep.APs...)
	before.Devices = append([]deploy.Device(nil), dep.Devices...)
	for i := range before.Devices {
		before.Devices[i].APLinks = append([]deploy.APLink(nil), dep.Devices[i].APLinks...)
	}
	ns := []int{1, 8, 24, 40}

	serial := make([]RoundStats, len(ns))
	for u, n := range ns {
		net, err := NewNetwork(cfg, dep, n, int64(u)+5)
		if err != nil {
			t.Fatal(err)
		}
		if serial[u], err = net.RunRound(n); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]RoundStats, len(ns))
	errs := make([]error, len(ns))
	pool.ForEach(len(ns), func(u int) {
		net, err := NewNetwork(cfg, dep, ns[u], int64(u)+5)
		if err != nil {
			errs[u] = err
			return
		}
		got[u], errs[u] = net.RunRound(ns[u])
	})
	for u := range ns {
		if errs[u] != nil {
			t.Fatal(errs[u])
		}
		if got[u] != serial[u] {
			t.Fatalf("n=%d: concurrent round %+v != serial %+v", ns[u], got[u], serial[u])
		}
	}
	if !reflect.DeepEqual(*dep, before) {
		t.Fatalf("NewNetwork wrote to the shared deployment: AP %v, APs %v", dep.Plan.AP, dep.APs)
	}
}

// TestOneAPMultiNetworkIsNetwork: a one-AP MultiAPNetwork built from the
// same deployment and seed runs exactly NewNetwork's rounds — its
// combined statistics, and its only AP's, equal the Network's round for
// round in every pinned configuration.
func TestOneAPMultiNetworkIsNetwork(t *testing.T) {
	for _, pc := range pinCases() {
		t.Run(pc.name, func(t *testing.T) {
			cfg := pinNetworkConfig(pc)
			multi, err := NewMultiAPNetwork(cfg, pinDeployment(pc), 1, 40, 23)
			if err != nil {
				t.Fatal(err)
			}
			want := runPinned(t, pc)
			for r := range want {
				got, err := multi.RunRound(pinDevices(r))
				if err != nil {
					t.Fatal(err)
				}
				if got.Combined != want[r] || got.PerAP[0] != want[r] {
					t.Fatalf("round %d: one-AP multi %+v (AP 0 %+v) != network %+v",
						r, got.Combined, got.PerAP[0], want[r])
				}
			}
		})
	}
}

// TestRunRoundRejectsDeviceCounts: a round over a negative device count
// or more devices than the network associated is an error, not a
// panic, on both network types.
func TestRunRoundRejectsDeviceCounts(t *testing.T) {
	pc := pinCases()[0]
	cfg := pinNetworkConfig(pc)
	single, err := NewNetwork(cfg, pinDeployment(pc), 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiAPNetwork(cfg, simtest.MultiAPDeployment(t, 12, 2, 3), 2, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 13} {
		if _, err := single.RunRound(n); err == nil {
			t.Errorf("Network.RunRound(%d) accepted", n)
		}
		if _, err := multi.RunRound(n); err == nil {
			t.Errorf("MultiAPNetwork.RunRound(%d) accepted", n)
		}
	}
	if _, err := NewNetwork(cfg, pinDeployment(pc), -1, 3); err == nil {
		t.Error("NewNetwork with -1 devices accepted")
	}
}
