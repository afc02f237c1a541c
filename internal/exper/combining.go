package exper

import (
	"fmt"

	"netscatter/internal/campaign"
)

func init() {
	register(Experiment{
		ID:    "M2",
		Title: "Soft cross-AP spectral combining and placement optimization",
		Ref:   "ROADMAP multi-AP follow-on; non-coherent power combining",
		Run:   runSoftCombining,
	})
}

// softCombiningSpecs are M2's two placement arms over one grid, with
// soft (summed power spectra) cross-AP combining on: the fixed line
// placement, and the greedy combined-PER optimizer. The arms differ in
// name and placement only, so cell i of each runs the same fleet.
func softCombiningSpecs(cfg Config) (line, optimized *campaign.Spec) {
	line = &campaign.Spec{
		Name:          "m2-line",
		PayloadBytes:  4,
		SoftCombining: true,
		Devices:       []int{64, 128, 192},
		APs:           []int{1, 2, 4, 8},
		Rounds:        []int{2},
		Seeds:         []int64{cfg.Seed},
	}
	if cfg.Quick {
		line.Devices, line.APs, line.Rounds = []int{192}, []int{1, 2, 4}, []int{1}
	}
	opt := *line
	opt.Name = "m2-optimized"
	opt.OptimizePlacement = true
	return line, &opt
}

// runSoftCombining reports each cell's soft PER next to frame-level
// selection combining and the best single AP, so the table reads as a
// ladder: soft ≤ selection ≤ best-AP, with the soft column strictly
// below selection wherever summing spectra rescues frames every
// individual AP lost. Rows run per k: the line arm's devices, then the
// optimized arm's.
func runSoftCombining(cfg Config) (*Result, error) {
	lineSpec, optSpec := softCombiningSpecs(cfg)
	arms := []struct {
		name string
		spec *campaign.Spec
		art  *campaign.Artifact
	}{{name: "line", spec: lineSpec}, {name: "optimized", spec: optSpec}}
	for i := range arms {
		art, err := runSpec(arms[i].spec)
		if err != nil {
			return nil, err
		}
		arms[i].art = art
	}

	res := &Result{ID: "M2", Title: "Soft cross-AP spectral combining (summed power spectra) vs selection"}
	tab := Table{
		Name: "PER vs devices at k APs, soft combining on",
		Columns: []string{"APs", "placement", "devices", "soft PER", "selection PER",
			"best-AP PER", "soft frames gained", "placement proxy"},
	}
	nd := len(lineSpec.Devices)
	for start := 0; start < len(arms[0].art.Results); start += nd {
		for _, arm := range arms {
			for _, cr := range arm.art.Results[start : start+nd] {
				s := cr.Snapshot
				dep := cr.Config.Geometry()
				tab.Rows = append(tab.Rows, []string{
					fmt.Sprintf("%d", cr.APs),
					arm.name,
					fmt.Sprintf("%d", cr.Devices),
					fmt.Sprintf("%.4f", lossRate(s.SoftFramesOK, s.Devices)),
					fmt.Sprintf("%.4f", s.PER),
					fmt.Sprintf("%.4f", lossRate(s.BestAPFramesOK, s.Devices)),
					fmt.Sprintf("%.1f", float64(s.SoftFramesOK-s.FramesOK)/float64(s.Rounds)),
					fmt.Sprintf("%.4f", dep.PlacementPERProxy(dep.APs)),
				})
			}
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"soft = non-coherent power combining: per-AP |X[k]|^2 spectra summed bin-wise, decoded once, then CRC-preferring selection over per-AP decodes plus the combined decode",
		"selection = frame-level cross-AP selection combining (the M1 baseline)",
		"optimized placement = greedy k-center + swap refinement over the half-room lattice and the line points, scored by the combined-PER surrogate (lower proxy is better)")
	return res, nil
}
