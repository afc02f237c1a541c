package exper

import (
	"fmt"

	"netscatter/internal/campaign"
	"netscatter/internal/radio"
	"netscatter/internal/serve"
)

func init() {
	register(Experiment{
		ID:    "R1",
		Title: "Robustness: PER vs Doppler and oscillator drift over a trajectory",
		Ref:   "ROADMAP time-varying channels; §3.2.3 power rule under drift",
		Run:   runTrajectoryDoppler,
	})
	register(Experiment{
		ID:    "R2",
		Title: "Robustness: recovery latency vs device churn at k APs",
		Ref:   "ROADMAP time-varying channels; §3.3.4 re-association",
		Run:   runTrajectoryChurn,
	})
}

// The robustness sweeps share one substrate: a mid-size code book
// (SF 8, 500 kHz) and 2-byte payloads keep multi-round trajectories
// cheap while leaving the near-far machinery intact.
const (
	trajectorySF           = 8
	trajectoryPayloadBytes = 2
)

// doppler is one R1 channel: Jakes fading at fdHz plus an oscillator
// random walk of driftHz per round. (0, 0) is the retained oracle: a
// trajectory with every process off, bit-identical to plain rounds.
func doppler(fdHz, driftHz float64) campaign.ChannelSpec {
	return campaign.ChannelSpec{
		Name:      fmt.Sprintf("doppler %g Hz, drift %g Hz", fdHz, driftHz),
		Adversity: &serve.AdversityConfig{DopplerHz: fdHz, CFODriftHz: driftHz},
	}
}

// dopplerSpec is R1's grid: one single-AP fleet evolved over a
// multi-round trajectory at each fading coherence (Jakes model at the
// round period) and oscillator drift.
func dopplerSpec(cfg Config) *campaign.Spec {
	s := &campaign.Spec{
		Name:         "r1-doppler",
		SF:           trajectorySF,
		PayloadBytes: trajectoryPayloadBytes,
		Devices:      []int{32},
		Rounds:       []int{10},
		Seeds:        []int64{cfg.Seed},
		Channels:     []campaign.ChannelSpec{doppler(0, 0), doppler(2, 0), doppler(5, 0), doppler(10, 0), doppler(5, 2)},
	}
	if cfg.Quick {
		s.Devices, s.Rounds = []int{16}, []int{5}
		s.Channels = []campaign.ChannelSpec{doppler(0, 0), doppler(5, 0)}
	}
	return s
}

// runTrajectoryDoppler reports PER, losses attributed to fading, and
// how often the power rule benched a device at each point. This is the
// axis the paper's static-channel evaluation leaves open: how fast the
// channel may move before the reciprocity proxy goes stale.
func runTrajectoryDoppler(cfg Config) (*Result, error) {
	spec := dopplerSpec(cfg)
	art, err := runSpec(spec)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "R1", Title: "PER vs Doppler / drift over a trajectory"}
	tab := Table{
		Name:    fmt.Sprintf("%d devices, %d rounds, 1 AP", spec.Devices[0], spec.Rounds[0]),
		Columns: []string{"doppler Hz", "rho", "drift Hz/rnd", "PER", "lost fading", "skipped", "reassocs"},
	}
	for _, cr := range art.Results {
		s, adv := cr.Snapshot, cr.Config.Adversity
		// Effective per-round correlation the trajectory ran with, at
		// its round period (the cell's air time per round): doppler 0
		// disables evolved fading entirely (the oracle), so the
		// static-channel rho = 1 never applies.
		rho := 0.0
		if adv.DopplerHz > 0 {
			rho = radio.JakesCorrelation(adv.DopplerHz, s.SimSeconds/float64(s.Rounds))
		}
		tab.Rows = append(tab.Rows, []string{
			f(adv.DopplerHz),
			fmt.Sprintf("%.3f", rho),
			f(adv.CFODriftHz),
			fmt.Sprintf("%.3f", s.PER),
			fmt.Sprintf("%d", s.LostToFading),
			fmt.Sprintf("%d", s.SkippedRounds),
			fmt.Sprintf("%d", s.Reassociations),
		})
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"rho = J0(2π·fD·T_round): the AR(1) per-round fading correlation at this round period",
		"doppler 0 is the retained oracle: the trajectory is bit-identical to independent rounds",
		"PER pools every device-round of the trajectory")
	return res, nil
}

// churn is one R2 channel: devices sleep with sleepProb per round and
// wake with probability 0.5.
func churn(sleepProb float64) campaign.ChannelSpec {
	return campaign.ChannelSpec{
		Name:      fmt.Sprintf("sleep %g", sleepProb),
		Adversity: &serve.AdversityConfig{SleepProb: sleepProb, WakeProb: 0.5},
	}
}

// churnSpec is R2's grid: device duty-cycling rates at k ∈ {1, 2, 4}
// APs. The quick trajectory is still long enough for full sleep →
// timeout → wake → re-associate cycles to complete at heavy churn.
func churnSpec(cfg Config) *campaign.Spec {
	s := &campaign.Spec{
		Name:         "r2-churn",
		SF:           trajectorySF,
		PayloadBytes: trajectoryPayloadBytes,
		Devices:      []int{24},
		APs:          []int{1, 2, 4},
		Rounds:       []int{14},
		Seeds:        []int64{cfg.Seed},
		Channels:     []campaign.ChannelSpec{churn(0.05), churn(0.15), churn(0.3)},
	}
	if cfg.Quick {
		s.Devices, s.APs, s.Rounds = []int{12}, []int{1, 2}, []int{12}
		s.Channels = []campaign.ChannelSpec{churn(0.3)}
	}
	return s
}

// runTrajectoryChurn reports the recovery pipeline's throughput at each
// churn rate and AP count: AP-side timeouts, completed
// re-associations, and the latency distribution from outage to the
// next CRC-valid frame. Densifying the infrastructure does not shorten
// the protocol's recovery path (that is handshake-bound), but it keeps
// PER down while devices churn.
func runTrajectoryChurn(cfg Config) (*Result, error) {
	spec := churnSpec(cfg)
	art, err := runSpec(spec)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "R2", Title: "Recovery latency vs churn at k APs"}
	tab := Table{
		Name:    fmt.Sprintf("%d devices, %d rounds, wake prob 0.5", spec.Devices[0], spec.Rounds[0]),
		Columns: []string{"APs", "sleep prob", "PER", "lost byAP", "reassocs", "mean rec rnds", "p90 rec rnds"},
	}
	for _, cr := range art.Results {
		s := cr.Snapshot
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", cr.APs),
			f(cr.Config.Adversity.SleepProb),
			fmt.Sprintf("%.3f", s.PER),
			fmt.Sprintf("%d", s.DevicesLostByAP),
			fmt.Sprintf("%d", s.Reassociations),
			fmt.Sprintf("%.1f", s.MeanRecoveryLatency()),
			fmt.Sprintf("%.0f", s.RecoveryLatencyQuantile(0.9)),
		})
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"recovery latency counts rounds from the outage event (sleep/skip/loss) to the next CRC-valid frame",
		"sleepers keep stale power state; the AP frees their slot after its silence budget",
		"PER pools every device-round of the trajectory")
	return res, nil
}
