package serve

// RunLocal is the in-process twin of a hosted deployment: it builds
// the world exactly as POST /v1/deployments would (BuildWorld) and
// runs rounds through the same step path the scheduler uses, so a
// config stepped locally and the same config stepped on a live
// netscatter-serve instance accumulate bit-identical snapshots. The
// campaign runner uses this as its local executor; the equivalence is
// test-enforced from both internal/campaign and internal/exper.

import "netscatter/internal/sim"

// RunLocal executes rounds of one deployment config in-process and
// returns the accumulated snapshot.
func RunLocal(cfg DeploymentConfig, rounds int) (sim.Snapshot, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(Config{}.withDefaults().MaxDevices); err != nil {
		return sim.Snapshot{}, err
	}
	w, err := BuildWorld(cfg)
	if err != nil {
		return sim.Snapshot{}, err
	}
	var acc sim.Accumulator
	for i := 0; i < rounds; i++ {
		stats, err := w.Step()
		if err != nil {
			return sim.Snapshot{}, err
		}
		acc.AddMulti(stats, w.Net.SoftCombining())
	}
	return acc.Snapshot(), nil
}
