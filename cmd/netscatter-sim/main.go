// netscatter-sim runs concurrent NetScatter rounds over a simulated
// office deployment and reports decode statistics and network metrics.
// Its flags map onto a netscatter-serve deployment config, and it steps
// the same world a served deployment of that config steps, so the two
// report identical rounds.
//
// Usage:
//
//	netscatter-sim -devices 256 -rounds 5
//	netscatter-sim -devices 64 -sf 8 -bw 250000 -payload 4
//	netscatter-sim -devices 128 -aps 4 -rounds 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"netscatter/internal/serve"
	"netscatter/internal/sim"
)

// options holds the command line.
type options struct {
	devices, rounds, payload, sf, skip, aps int
	bw                                      float64
	seed                                    int64
	fading, soft, optAPs                    bool
	churn, doppler, apDrop                  float64
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "netscatter-sim:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseArgs reads and validates the command line.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("netscatter-sim", flag.ContinueOnError)
	fs.IntVar(&o.devices, "devices", 64, "number of concurrent devices")
	fs.IntVar(&o.rounds, "rounds", 3, "rounds to run")
	fs.IntVar(&o.payload, "payload", 5, "payload bytes per device")
	fs.IntVar(&o.sf, "sf", 9, "spreading factor")
	fs.Float64Var(&o.bw, "bw", 500e3, "chirp bandwidth [Hz]")
	fs.IntVar(&o.skip, "skip", 2, "minimum cyclic-shift spacing")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&o.fading, "fading", false, "enable correlated channel fading (AR(1), rho 0.97)")
	fs.IntVar(&o.aps, "aps", 1, "access points hearing the deployment (>1 enables cross-AP diversity decode)")
	fs.Float64Var(&o.churn, "churn", 0, "per-round device sleep probability")
	fs.Float64Var(&o.doppler, "doppler", 0, "maximum Doppler shift [Hz] for correlated fading drift")
	fs.Float64Var(&o.apDrop, "ap-drop", 0, "per-round, per-AP dropout probability")
	fs.BoolVar(&o.soft, "soft", false, "soft cross-AP combining: sum per-AP power spectra and decode the combined arena")
	fs.BoolVar(&o.optAPs, "opt-placement", false, "optimize AP placement for the generated fleet instead of the fixed line")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, validateFlags(o.devices, o.rounds, o.payload, o.aps)
}

// validateFlags rejects nonsensical count flags up front with a clear
// message instead of letting them surface as opaque failures (or silent
// no-op runs, as -rounds 0 used to) deeper in the stack.
func validateFlags(devices, rounds, payload, aps int) error {
	switch {
	case devices < 1:
		return fmt.Errorf("-devices must be at least 1 (got %d)", devices)
	case rounds < 1:
		return fmt.Errorf("-rounds must be at least 1 (got %d)", rounds)
	case payload < 1:
		return fmt.Errorf("-payload must be at least 1 byte (got %d)", payload)
	case aps < 1:
		return fmt.Errorf("-aps must be at least 1 (got %d)", aps)
	}
	return nil
}

// deployment maps the command line onto the served deployment config
// it runs. Any of -fading, -churn, -doppler or -ap-drop steps the
// deployment through a trajectory.
func (o options) deployment() serve.DeploymentConfig {
	cfg := serve.DeploymentConfig{
		Devices:           o.devices,
		APs:               o.aps,
		SF:                o.sf,
		BandwidthHz:       o.bw,
		Skip:              o.skip,
		PayloadBytes:      o.payload,
		Seed:              o.seed,
		SoftCombining:     o.soft,
		OptimizePlacement: o.optAPs,
	}
	if o.fading || o.churn > 0 || o.doppler > 0 || o.apDrop > 0 {
		cfg.Adversity = &serve.AdversityConfig{
			DopplerHz:  o.doppler,
			SleepProb:  o.churn,
			APDropProb: o.apDrop,
		}
		if o.fading {
			cfg.Adversity.Correlation = 0.97
		}
	}
	return cfg
}

// stepRounds steps w rounds times, handing each round's statistics to
// each.
func stepRounds(w serve.World, rounds int, each func(r int, st sim.MultiRoundStats)) error {
	for r := 1; r <= rounds; r++ {
		st, err := w.Step()
		if err != nil {
			return err
		}
		each(r, st)
	}
	return nil
}

// run prints the deployment, one report per round and the totals.
func run(out io.Writer, o options) error {
	w, err := serve.BuildWorld(o.deployment())
	if err != nil {
		return err
	}
	placement := "line"
	if o.optAPs {
		placement = "optimized"
	}
	fmt.Fprintf(out, "NetScatter network: %d devices, %d AP(s) (%s placement), %s SF=%d SKIP>=%d\n",
		o.devices, o.aps, placement, fmtBW(o.bw), o.sf, o.skip)
	fmt.Fprintf(out, "SNR spread %.1f dB, best-AP SNR spread %.1f dB\n", w.Dep.SNRSpreadDB(), w.Dep.BestSNRSpreadDB())
	if w.Tr != nil {
		fmt.Fprintf(out, "adversity: fading %v, doppler %.1f Hz, churn %.2f, AP dropout %.2f\n",
			o.fading, o.doppler, o.churn, o.apDrop)
	}
	fmt.Fprintln(out)

	var okTotal, txTotal, bestTotal, softTotal int
	var perSum float64
	err = stepRounds(w, o.rounds, func(r int, st sim.MultiRoundStats) {
		c := st.Combined
		ffts := 0
		for _, d := range st.Decodes {
			if d != nil {
				ffts += d.FFTs
			}
		}
		okTotal += c.FramesOK
		txTotal += c.Devices
		perSum += c.PER()
		fmt.Fprintf(out, "round %d: %3d/%3d frames (PER %.3f), %d receiver FFTs, %.1f ms on air, goodput %.1f kbps\n",
			r, c.FramesOK, c.Devices, c.PER(), ffts, c.RoundSecs*1e3,
			float64(c.FramesOK*o.payload*8)/c.RoundSecs/1e3)
		if o.aps > 1 {
			best := c.FramesOK - st.DiversityFramesGained()
			bestTotal += best
			fmt.Fprintf(out, "         best single AP %3d, diversity +%d\n", best, st.DiversityFramesGained())
		}
		if o.soft {
			softTotal += st.Soft.FramesOK
			fmt.Fprintf(out, "         soft: %3d/%3d frames (PER %.3f), spectral combining +%d\n",
				st.Soft.FramesOK, st.Soft.Devices, st.Soft.PER(), st.SoftFramesGained())
		}
		if o.aps > 1 {
			for a, s := range st.PerAP {
				fmt.Fprintf(out, "         AP %d: %3d/%3d frames, %d detected, BER %.4f\n",
					a, s.FramesOK, s.Devices, s.Detected, s.BER())
			}
		}
	})
	if err != nil {
		return err
	}

	pct := func(n int) float64 { return 100 * float64(n) / float64(txTotal) }
	fmt.Fprintf(out, "\ntotal: %d/%d frames (%.1f%%), mean PER %.3f over %d rounds\n",
		okTotal, txTotal, pct(okTotal), perSum/float64(o.rounds), o.rounds)
	if o.aps > 1 {
		fmt.Fprintf(out, "best single AP: %d (%.1f%%)\n", bestTotal, pct(bestTotal))
	}
	if o.soft {
		fmt.Fprintf(out, "soft combining: %d (%.1f%%), +%d over selection\n",
			softTotal, pct(softTotal), softTotal-okTotal)
	}
	if w.Tr != nil {
		s := w.Tr.Stats()
		fmt.Fprintf(out, "churn: %d sleeps, %d wakes; power rule skipped %d device-rounds; %d all-lost rounds\n",
			s.SleepEvents, s.WakeEvents, s.SkippedRounds, s.AllLostRounds)
		fmt.Fprintf(out, "recovery: %d AP-side losses, %d re-associations, mean latency %.1f rounds (p90 %.0f) over %d recoveries\n",
			s.DevicesLostByAP, s.Reassociations, s.MeanRecoveryLatency(),
			s.RecoveryLatencyQuantile(0.9), len(s.RecoveryLatencies))
		fmt.Fprintf(out, "losses: %d dropout, %d interference, %d fading, %d other; %d burst rounds, %d AP-down rounds\n",
			s.LostToDropout, s.LostToInterference, s.LostToFading, s.LostToOther,
			s.BurstRounds, s.APDownRounds)
	}
	return nil
}

func fmtBW(bw float64) string {
	if bw >= 1e6 {
		return fmt.Sprintf("%.3g MHz", bw/1e6)
	}
	return fmt.Sprintf("%.3g kHz", bw/1e3)
}
