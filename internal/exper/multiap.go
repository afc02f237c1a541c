package exper

import (
	"context"
	"fmt"

	"netscatter/internal/campaign"
	"netscatter/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "M1",
		Title: "Multi-AP diversity: PER vs number of devices at k APs",
		Ref:   "ROADMAP multi-AP; Patel et al., bi-static scaling",
		Run:   runMultiAP,
	})
}

// runSpec runs a campaign spec in-process. Every network sweep in this
// package is a spec plus a renderer over the artifact; the campaign
// runner owns the seeds, the deployments, the rounds and the fan-out.
func runSpec(spec *campaign.Spec) (*campaign.Artifact, error) {
	return (&campaign.Runner{Spec: spec}).Run(context.Background())
}

// lossRate is 1 − ok/total, the PER of ok frames out of total sent
// (0 when nothing was sent).
func lossRate(ok, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 1 - float64(ok)/float64(total)
}

// multiAPSpec is M1's grid: the office deployment at n devices under
// k ∈ {1, 2, 4} line-placed APs with frame-level selection combining —
// the frame-level diversity gain of densifying the infrastructure, the
// scenario axis the paper's single-AP evaluation leaves open.
func multiAPSpec(cfg Config) *campaign.Spec {
	s := &campaign.Spec{
		Name:         "m1-multiap",
		PayloadBytes: 4,
		Devices:      []int{16, 64, 128, 192},
		APs:          []int{1, 2, 4},
		Rounds:       []int{2},
		Seeds:        []int64{cfg.Seed},
	}
	if cfg.Quick {
		s.Devices, s.Rounds = []int{16, 64}, []int{1}
	}
	return s
}

// runMultiAP reports, per (k, n) cell, the combined (cross-AP
// aggregated) PER next to the best single AP's and the mean AP's.
func runMultiAP(cfg Config) (*Result, error) {
	art, err := runSpec(multiAPSpec(cfg))
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "M1", Title: "Multi-AP diversity (frame-level selection combining)"}
	tab := Table{
		Name:    "PER vs devices at k APs",
		Columns: []string{"APs", "devices", "combined PER", "best-AP PER", "mean-AP PER", "frames gained", "goodput frac"},
	}
	for _, cr := range art.Results {
		s := cr.Snapshot
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", cr.APs),
			fmt.Sprintf("%d", cr.Devices),
			fmt.Sprintf("%.3f", s.PER),
			fmt.Sprintf("%.3f", lossRate(s.BestAPFramesOK, s.Devices)),
			fmt.Sprintf("%.3f", lossRate(s.PerAPFramesOK, s.Devices*int64(cr.APs))),
			fmt.Sprintf("%.1f", float64(s.FramesOK-s.BestAPFramesOK)/float64(s.Rounds)),
			fmt.Sprintf("%.3f", goodFraction(s)),
		})
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"combined = cross-AP selection combining (CRC-preferring best-SNR aggregation, deduplicated by device)",
		"k=1 reproduces the paper's single-AP deployment geometry exactly (central AP)",
		"each cell is its own deployment seeded from the campaign stream; PERs pool the cell's rounds, frames gained is per round")
	return res, nil
}

// goodFraction is the share of scheduled payload bits delivered
// without error.
func goodFraction(s sim.Snapshot) float64 {
	if s.ScheduledBits == 0 {
		return 0
	}
	return float64(s.TotalBits-s.BitErrors) / float64(s.ScheduledBits)
}
