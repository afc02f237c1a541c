package main

// The closed-loop round workloads (dense256, soft4x32): one driver
// goroutine runs rounds back to back on networks built from the seed.

import (
	"fmt"
	"runtime"
	"time"

	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

const (
	// setups is how many networks a run builds, each from its own
	// sub-seed; set-up time is their median and the run's time is split
	// evenly across them.
	setups = 5
	// warmRounds run on each network before timing. Their stats are the
	// sequence the GOMAXPROCS=1 replay must reproduce.
	warmRounds = 4
	// minSamples leaves ten samples beyond the nearest-rank p99.
	minSamples = 1000
	// minWindows is the fewest measurement windows a run reports over.
	minWindows = 3
	// replicaTimeTol bounds |replica round p50 / sim round p50 − 1| for
	// the untraced replica; replica RoundStats must match exactly.
	replicaTimeTol = 0.15
	// uncoveredTol bounds the share of the traced round that no layer
	// span covers: the layers' self times must sum to the round's wall
	// time within this share.
	uncoveredTol = 0.05
	// maxAPs bounds the per-AP stats a roundResult carries.
	maxAPs = 4
)

// roundResult is one round's outcome in comparable form.
type roundResult struct {
	final    sim.RoundStats // what the network delivers: the soft-combined selection when soft combining is on
	combined sim.RoundStats
	perAP    [maxAPs]sim.RoundStats
	nAP      int
}

// roundSpec is a round workload's network.
type roundSpec struct {
	devices, aps int
	soft         bool
}

var roundSpecs = map[string]roundSpec{
	"dense256": {devices: 256, aps: 1},
	"soft4x32": {devices: 32, aps: 4, soft: true},
}

// geoSeed derives setup i's deployment seed from the workload seed. As
// in netscatter-sim and netscatter-serve, the network seed is geoSeed+1.
func geoSeed(seed int64, i int) int64 { return seed*16 + int64(i) + 1 }

type roundNet interface {
	round() (roundResult, error)
}

type singleNet struct {
	n       *sim.Network
	devices int
}

func (s singleNet) round() (roundResult, error) {
	st, err := s.n.RunRound(s.devices)
	return roundResult{final: st, combined: st}, err
}

type multiNet struct {
	n       *sim.MultiAPNetwork
	devices int
}

func (m multiNet) round() (roundResult, error) {
	st, err := m.n.RunRound(m.devices)
	if err != nil {
		return roundResult{}, err
	}
	r := roundResult{final: st.Combined, combined: st.Combined, nAP: len(st.PerAP)}
	if m.n.SoftCombining() {
		r.final = st.Soft
	}
	copy(r.perAP[:], st.PerAP)
	return r, nil
}

// builtNet is one network of a workload plus what its replica needs.
type builtNet struct {
	spec    roundSpec
	cfg     sim.Config
	dep     *deploy.Deployment
	netSeed int64
	net     roundNet
	single  *sim.Network
	multi   *sim.MultiAPNetwork
}

func (s roundSpec) build(geo int64) (*builtNet, error) {
	cfg := sim.DefaultConfig()
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, s.devices, cfg.Params.BW, dsp.NewRand(geo))
	b := &builtNet{spec: s, cfg: cfg, dep: dep, netSeed: geo + 1}
	if s.aps == 1 && !s.soft {
		n, err := sim.NewNetwork(cfg, dep, s.devices, b.netSeed)
		if err != nil {
			return nil, err
		}
		b.single, b.net = n, singleNet{n, s.devices}
		return b, nil
	}
	dep.PlaceAPs(s.aps)
	n, err := sim.NewMultiAPNetwork(cfg, dep, s.aps, s.devices, b.netSeed)
	if err != nil {
		return nil, err
	}
	n.SetSoftCombining(s.soft)
	b.multi, b.net = n, multiNet{n, s.devices}
	return b, nil
}

// replicaNet is a traced replica of a built network.
type replicaNet interface {
	round() (roundResult, error)
	setTracer(*tracer)
	lastFFTs() int
}

func (b *builtNet) replica() (replicaNet, error) {
	if b.single != nil {
		return newSingleReplica(b.cfg, b.dep, b.single, b.spec.devices, b.netSeed)
	}
	if !b.spec.soft {
		return nil, fmt.Errorf("replica: multi-AP selection-only networks are not replicated")
	}
	return newMultiReplica(b.cfg, b.dep, b.multi.Book(), b.spec.aps, b.spec.devices, b.netSeed)
}

// checkRound rejects an outcome no decoder can produce.
func checkRound(r roundResult, devices int) error {
	stats := [2 + maxAPs]sim.RoundStats{r.final, r.combined}
	copy(stats[2:], r.perAP[:r.nAP])
	for _, st := range stats[:2+r.nAP] {
		if st.Devices != devices || st.Detected > st.Devices || st.FramesOK > st.Detected || st.BitErrors > st.TotalBits {
			return fmt.Errorf("inconsistent round stats %+v for %d devices", st, devices)
		}
	}
	return nil
}

// setupNets builds the run's networks and warms each up, returning the
// set-up times in seconds and the warm-up outcomes.
func setupNets(spec roundSpec, seed int64, n int) ([]*builtNet, []float64, [][]roundResult, error) {
	nets := make([]*builtNet, n)
	secs := make([]float64, n)
	warm := make([][]roundResult, n)
	for i := range nets {
		t0 := time.Now()
		b, err := spec.build(geoSeed(seed, i))
		if err != nil {
			return nil, nil, nil, err
		}
		for k := 0; k < warmRounds; k++ {
			r, err := b.net.round()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("warm-up round: %w", err)
			}
			warm[i] = append(warm[i], r)
		}
		secs[i] = time.Since(t0).Seconds()
		nets[i] = b
	}
	return nets, secs, warm, nil
}

// replayAtOneProc rebuilds setup 0's network at GOMAXPROCS=1 and checks
// its first rounds reproduce want, the sequence the run saw at the
// host's core count: the simulator's bit-identity invariant.
func replayAtOneProc(spec roundSpec, seed int64, want []roundResult) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	b, err := spec.build(geoSeed(seed, 0))
	if err != nil {
		return err
	}
	for k, w := range want {
		got, err := b.net.round()
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("round %d at GOMAXPROCS=1 differs from GOMAXPROCS=%d:\n got %+v\nwant %+v", k, prev, got.final, w.final)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runRounds is the untraced run of a round workload.
func runRounds(spec roundSpec, seed int64, seconds float64) (*result, error) {
	nets, setupSecs, warm, err := setupNets(spec, seed, setups)
	if err != nil {
		return nil, err
	}
	res := &result{}
	block := time.Duration(seconds / setups * float64(time.Second))
	// Round time and step time (previous round's end to this one's) in
	// lockstep windows.
	rounds, steps := newWindower(), newWindower()
	var framesOK, devices int
	prev := time.Now()
	run := func(b *builtNet) error {
		t0 := time.Now()
		r, err := b.net.round()
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.failed++
			res.problems = append(res.problems, err.Error())
			return nil
		}
		if err := checkRound(r, spec.devices); err != nil {
			return err
		}
		rounds.add(ms(t1.Sub(t0)))
		steps.add(ms(t1.Sub(prev)))
		prev = t1
		framesOK += r.final.FramesOK
		devices += r.final.Devices
		return nil
	}
	for _, b := range nets {
		for deadline := time.Now().Add(block); time.Now().Before(deadline); {
			if err := run(b); err != nil {
				return nil, err
			}
		}
	}
	for len(rounds.wins) < minWindows {
		if err := run(nets[len(nets)-1]); err != nil {
			return nil, err
		}
	}

	if err := replayAtOneProc(spec, seed, warm[0]); err != nil {
		res.problems = append(res.problems, "bit-identity: "+err.Error())
	}

	m := res.metrics()
	w := rounds.wins
	rate := medianOf(w, func(w window) float64 { return w.rate })
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"rounds_per_s", rate},
		{"round_p50_ms", medianOf(w, func(w window) float64 { return w.p50 })},
		{"round_p99_ms", medianOf(w, func(w window) float64 { return w.p99 })},
		{"cpu_ms_per_round", medianOf(w, func(w window) float64 { return w.cpuPerOp })},
		{"step_p50_ms", medianOf(steps.wins, func(w window) float64 { return w.p50 })},
		{"step_p99_ms", medianOf(steps.wins, func(w window) float64 { return w.p99 })},
		// A closed loop never queues: its highest sustained rate is the
		// rate it ran at.
		{"max_rate_rps", rate},
		{"frames_ok_frac", float64(framesOK) / float64(devices)},
		{"setup_s", median(setupSecs)},
		{"peak_rss_mb", peakRSSMB()},
	} {
		m[e.name] = e.v
	}
	res.samples = windowOps
	res.notes = append(res.notes, fmt.Sprintf("%d windows of %d rounds", len(w), windowOps))
	return res, nil
}

// layerAcc sums per-layer span figures over traced rounds.
type layerAcc struct {
	rounds    int
	busy      map[string]float64 // summed span durations, ms
	calls     map[string]float64
	airSelf   float64
	uncovered []float64 // share of each round no child span covers
	ffts      float64
	scheduled int
	detected  int
	framesOK  int
}

func (l *layerAcc) add(spans []span) {
	l.rounds++
	var root, rx int32 = -1, -1
	for _, s := range spans {
		l.busy[s.Name] += ms(time.Duration(s.dur()))
		l.calls[s.Name]++
		switch s.Name {
		case spanRound:
			root = s.ID
		case spanReceive:
			rx = s.ID
		}
	}
	self := selfTimes(spans)
	if rx >= 0 {
		l.airSelf += ms(time.Duration(self[rx]))
	}
	if root >= 0 {
		l.uncovered = append(l.uncovered, float64(self[root])/float64(spans[root].dur()))
	}
}

// traceRounds is the traced run of a round workload: a runtime block of
// plain simulator rounds, then the replica in lockstep with a fresh
// simulator network, alternating untraced and traced replica rounds.
func traceRounds(spec roundSpec, seed int64, seconds float64) (*result, error) {
	res := &result{}
	m := res.metrics()

	// Runtime block: what the real round costs the Go runtime.
	nets, _, _, err := setupNets(spec, seed, 1)
	if err != nil {
		return nil, err
	}
	rt0 := sampleRuntime()
	deadline := time.Now().Add(time.Duration(0.3 * seconds * float64(time.Second)))
	rounds := 0
	for ; time.Now().Before(deadline); rounds++ {
		if _, err := nets[0].net.round(); err != nil {
			return nil, err
		}
	}
	rt := diffRuntime(rt0, sampleRuntime(), rounds)
	m["runtime.allocs_per_round"] = rt.allocsPerOp
	m["runtime.gc_per_kround"] = rt.gcPerKOp
	m["runtime.sched_wait_p99_us"] = rt.schedWaitP99us
	m["runtime.cpu_util"] = rt.cpuUtil

	// Lockstep: simulator network and replica from the same seeds.
	b, err := spec.build(geoSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	rep, err := b.replica()
	if err != nil {
		return nil, err
	}
	tr := newTracer(1<<14, 8)
	acc := &layerAcc{busy: map[string]float64{}, calls: map[string]float64{}}
	var simMs, plainMs, tracedMs []float64
	deadline = time.Now().Add(time.Duration(0.7 * seconds * float64(time.Second)))
	for r := 0; r < 2*warmRounds || time.Now().Before(deadline) || len(tracedMs) < 50; r++ {
		t0 := time.Now()
		want, err := b.net.round()
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		traced := r%2 == 1
		if traced {
			tr.reset(int64(r))
			rep.setTracer(tr)
		} else {
			rep.setTracer(nil)
		}
		t2 := time.Now()
		got, err := rep.round()
		t3 := time.Now()
		res.attempted++
		if err != nil {
			return nil, err
		}
		if got != want {
			res.problems = append(res.problems, fmt.Sprintf("replica round %d differs from the simulator:\n got %+v\nwant %+v", r, got.final, want.final))
			break
		}
		acc.scheduled += got.final.Devices
		acc.detected += got.final.Detected
		acc.framesOK += got.final.FramesOK
		if r < 2*warmRounds {
			continue
		}
		simMs = append(simMs, ms(t1.Sub(t0)))
		if traced {
			tracedMs = append(tracedMs, ms(t3.Sub(t2)))
			acc.add(tr.spans())
			acc.ffts += float64(rep.lastFFTs())
		} else {
			plainMs = append(plainMs, ms(t3.Sub(t2)))
		}
	}
	tr.reset(-1)
	if n := tr.lost.Load(); n > 0 {
		return nil, fmt.Errorf("span arena overflowed: %d spans lost", n)
	}

	ratio := median(plainMs) / median(simMs)
	uncovered := median(acc.uncovered)
	if ratio < 1-replicaTimeTol || ratio > 1+replicaTimeTol {
		res.problems = append(res.problems, fmt.Sprintf("replica round p50 is %.3f× the simulator's; allowed ±%.2f", ratio, replicaTimeTol))
	}
	if uncovered > uncoveredTol {
		res.problems = append(res.problems, fmt.Sprintf("layer spans leave %.1f%% of the round uncovered; allowed %.1f%%", 100*uncovered, 100*uncoveredTol))
	}

	n := float64(acc.rounds)
	m["synth.template_ms"] = acc.busy[spanTemplate] / n
	m["synth.template_calls"] = acc.calls[spanTemplate] / n
	m["air.accumulate_ms"] = acc.busy[spanAccum] / n
	m["air.accumulate_calls"] = acc.calls[spanAccum] / n
	m["air.receive_ms"] = acc.busy[spanReceive] / n
	m["air.self_ms"] = acc.airSelf / n
	m["core.decode_ms"] = acc.busy[spanDecode] / n
	m["core.combine_ms"] = acc.busy[spanCombine] / n
	m["sim.prep_ms"] = acc.busy[spanPrep] / n
	m["sim.aggregate_ms"] = acc.busy[spanAggregate] / n
	m["core.ffts"] = acc.ffts / n
	m["core.detect_frac"] = float64(acc.detected) / float64(acc.scheduled)
	m["core.crc_ok_frac"] = float64(acc.framesOK) / float64(max(acc.detected, 1))
	m["trace.overhead_frac"] = median(tracedMs)/median(plainMs) - 1
	m["trace.replica_ratio"] = ratio
	m["trace.uncovered_frac"] = uncovered
	res.samples = acc.rounds
	res.spans = tr
	return res, nil
}
