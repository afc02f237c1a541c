package main

// The serve_fleet workload: an in-process netscatter-serve (default
// config) hosting small tenants, driven through its public http.Handler.
// Driving the handler in-process keeps the load generator within the
// host's cores: one goroutine sends steps, one sends reads, and each
// tenant's NDJSON stream is a goroutine rather than a connection.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"netscatter/internal/serve"
)

const (
	fleetTenants = 32
	// hostileEvery: every fourth tenant runs the hostile preset.
	hostileEvery = 4
	// fleetLimitMs is the step p99 latency limit behind max_rate_rps.
	fleetLimitMs = 50.0
	// refRate is the offered rate step_p50_ms/step_p99_ms report.
	refRate = 800.0
	// phaseSteps is a fixed-rate sub-phase's step count: eleven beyond
	// its p99.
	phaseSteps = minSamples + 100
	// fleetCycles is how many times the run offers each rate and
	// saturates the server; figures are medians over the cycles' sub-
	// phases (saturation: over windows).
	fleetCycles = 3
	// refSteps is the traced run's reference-rate phase length, long
	// enough for the reads' p99 to have its tail.
	refSteps = 4 * phaseSteps
	// readShare is the read rate as a share of the step rate.
	readShare = 0.25
	// drainTimeout bounds the wait for a phase's rounds after its last
	// step; a step still unobserved then has failed.
	drainTimeout = 10 * time.Second
	// classRounds is each tenant class's RunLocal pass length.
	classRounds = 300
)

// fleetRates are the fixed offered rates (steps per second, all
// tenants together), ascending.
var fleetRates = []float64{400, refRate, 1600}

// hostilePreset is the "hostile" channel of examples/campaign/office.json.
var hostilePreset = serve.AdversityConfig{DopplerHz: 8, BurstProb: 0.1, APDropProb: 0.02, SleepProb: 0.05}

// tenantConfig is tenant i's deployment: 8 devices at SF 7 on one AP, or
// on two APs under the hostile preset for every fourth tenant.
func tenantConfig(seed int64, i int) serve.DeploymentConfig {
	cfg := serve.DeploymentConfig{
		Name:    fmt.Sprintf("t%02d", i),
		Devices: 8,
		SF:      7,
		APs:     1,
		Seed:    geoSeed(seed, i),
	}
	if isHostile(i) {
		adv := hostilePreset
		cfg.APs, cfg.Adversity = 2, &adv
	}
	return cfg
}

func isHostile(i int) bool { return i%hostileEvery == hostileEvery-1 }

// streamRec collects one tenant's stream: the arrival time of each round
// (by round number) and how many round numbers the stream skipped.
type streamRec struct {
	mu       sync.Mutex
	arrivals []time.Duration // arrivals[k] is round k+1's; -1 if skipped
	missed   int
	notify   chan<- completion // closed-loop phase only
	tenant   int
}

type completion struct {
	tenant int
	round  int
	at     time.Duration
}

func (s *streamRec) observe(round int, at time.Duration) {
	s.mu.Lock()
	for len(s.arrivals) < round-1 {
		s.arrivals = append(s.arrivals, -1)
		s.missed++
	}
	if round == len(s.arrivals)+1 {
		s.arrivals = append(s.arrivals, at)
	}
	notify := s.notify
	s.mu.Unlock()
	if notify != nil {
		notify <- completion{s.tenant, round, at}
	}
}

// arrival returns when round appeared, -1 if it has not.
func (s *streamRec) arrival(round int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if round < 1 || round > len(s.arrivals) {
		return -1
	}
	return s.arrivals[round-1]
}

func (s *streamRec) setNotify(ch chan<- completion) {
	s.mu.Lock()
	s.notify = ch
	s.mu.Unlock()
}

// streamWriter is the ResponseWriter of one in-process stream request:
// it splits the NDJSON body into lines and records each round update.
type streamWriter struct {
	hdr   http.Header
	fl    *fleet
	rec   *streamRec
	code  int
	ready chan struct{} // closed once the status is written
	buf   []byte
}

func (w *streamWriter) Header() http.Header { return w.hdr }
func (w *streamWriter) Flush()              {}

func (w *streamWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
		close(w.ready)
	}
}

func (w *streamWriter) Write(p []byte) (int, error) {
	at := w.fl.now()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		var u serve.RoundUpdate
		if err := json.Unmarshal(w.buf[:i], &u); err != nil {
			return 0, err
		}
		w.buf = w.buf[i+1:]
		w.rec.observe(u.Round, at)
	}
}

// fleet is one running server with its tenants and their streams.
type fleet struct {
	epoch     time.Time
	srv       *serve.Server
	h         http.Handler
	ids       []int64
	cfgs      []serve.DeploymentConfig
	streams   []*streamRec
	requested []int // rounds requested per tenant, warm-up included
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

func (f *fleet) now() time.Duration { return time.Since(f.epoch) }

// do serves one in-process request and returns the recorder.
func (f *fleet) do(method, path, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	f.h.ServeHTTP(w, req)
	return w
}

// startFleet starts a server, creates the tenants, attaches their
// streams and runs one warm-up round on each.
func startFleet(seed int64) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := serve.New(serve.Config{})
	f := &fleet{epoch: time.Now(), srv: srv, h: srv.Handler(), cancel: cancel}
	for i := 0; i < fleetTenants; i++ {
		cfg := tenantConfig(seed, i)
		body, err := json.Marshal(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		w := f.do(http.MethodPost, "/v1/deployments", string(body))
		var cr serve.CreateResponse
		if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &cr) != nil {
			f.close()
			return nil, fmt.Errorf("creating tenant %d: HTTP %d %s", i, w.Code, w.Body.String())
		}
		rec := &streamRec{tenant: i}
		sw := &streamWriter{hdr: http.Header{}, fl: f, rec: rec, ready: make(chan struct{})}
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/deployments/%d/stream", cr.ID), nil).WithContext(ctx)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.h.ServeHTTP(sw, req)
		}()
		<-sw.ready
		if sw.code != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("stream of tenant %d: HTTP %d", i, sw.code)
		}
		f.ids = append(f.ids, cr.ID)
		f.cfgs = append(f.cfgs, cfg)
		f.streams = append(f.streams, rec)
		f.requested = append(f.requested, 0)
	}
	for i := range f.ids {
		if !f.step(i) {
			f.close()
			return nil, fmt.Errorf("warm-up step refused for tenant %d", i)
		}
	}
	if err := f.drain(time.Now().Add(drainTimeout)); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

// step requests one round for tenant i and reports whether it was
// accepted; accepted rounds are numbered in request order.
func (f *fleet) step(i int) bool {
	w := f.do(http.MethodPost, fmt.Sprintf("/v1/deployments/%d/step", f.ids[i]), `{"rounds":1}`)
	if w.Code != http.StatusAccepted {
		return false
	}
	f.requested[i]++
	return true
}

// drain waits until every requested round has appeared on its stream.
func (f *fleet) drain(deadline time.Time) error {
	for {
		pending := 0
		for i, s := range f.streams {
			if s.arrival(f.requested[i]) < 0 && f.requested[i] > 0 {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d tenants still have unobserved rounds", pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the server (which ends every stream) and waits for the
// stream goroutines.
func (f *fleet) close() {
	f.srv.Close()
	f.cancel()
	f.wg.Wait()
}

// metricsSnapshot reads the server's /metrics counters.
func (f *fleet) metricsSnapshot() (map[string]int64, error) {
	w := f.do(http.MethodGet, "/metrics", "")
	m := map[string]int64{}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return m, nil
}

// stats reads tenant i's served snapshot.
func (f *fleet) stats(i int) (serve.StatsResponse, error) {
	w := f.do(http.MethodGet, fmt.Sprintf("/v1/deployments/%d/stats", f.ids[i]), "")
	var sr serve.StatsResponse
	if w.Code != http.StatusOK {
		return sr, fmt.Errorf("stats of tenant %d: HTTP %d", i, w.Code)
	}
	return sr, json.Unmarshal(w.Body.Bytes(), &sr)
}

// readLoop sends stats and list GETs on its own schedule until stop,
// recording each read's duration in ms.
func (f *fleet) readLoop(rng *rand.Rand, rate float64, stop <-chan struct{}) (durs []float64, errs int) {
	next := time.Now()
	for k := 0; ; k++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		select {
		case <-stop:
			return durs, errs
		case <-time.After(time.Until(next)):
		}
		path := "/v1/deployments"
		if k%2 == 0 {
			path = fmt.Sprintf("/v1/deployments/%d/stats", f.ids[rng.IntN(len(f.ids))])
		}
		t0 := time.Now()
		w := f.do(http.MethodGet, path, "")
		durs = append(durs, ms(time.Since(t0)))
		if w.Code != http.StatusOK {
			errs++
		}
	}
}

// openPhase offers steps at a fixed rate, open loop, with reads beside
// them, then waits for the phase's rounds. Each step is timed from its
// due time to its round's arrival on the tenant stream.
func (f *fleet) openPhase(rng *rand.Rand, rate float64, n int) (recs []stepRec, reads []float64, readErrs int) {
	evs := poissonSchedule(rng, rate, n, len(f.ids))
	readRng := rand.New(rand.NewPCG(rng.Uint64(), rng.Uint64()))
	stop := make(chan struct{})
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		reads, readErrs = f.readLoop(readRng, rate*readShare, stop)
	}()

	recs = make([]stepRec, len(evs))
	rounds := make([]int, len(evs))
	start := f.now()
	for k, ev := range evs {
		due := start + ev.due
		if d := due - f.now(); d > 0 {
			time.Sleep(d)
		}
		r := stepRec{tenant: ev.tenant, due: due, sent: f.now(), done: -1}
		r.ok = f.step(ev.tenant)
		r.accepted = f.now()
		if r.ok {
			rounds[k] = f.requested[ev.tenant]
		}
		recs[k] = r
	}
	close(stop)
	<-readDone
	_ = f.drain(time.Now().Add(drainTimeout)) // an unobserved round fails its step below
	for k := range recs {
		if recs[k].ok {
			recs[k].done = f.streams[recs[k].tenant].arrival(rounds[k])
		}
	}
	return recs, reads, readErrs
}

// closedPhase keeps one step outstanding per tenant until the deadline:
// each tenant's next step is sent when its previous round arrives. It
// returns a window per windowOps completions (latency: step sent to
// round on the stream).
func (f *fleet) closedPhase(d time.Duration) (wins []window, attempted, failed int) {
	done := make(chan completion, len(f.ids)) // one outstanding step per tenant
	for _, s := range f.streams {
		s.setNotify(done)
	}
	defer func() {
		for _, s := range f.streams {
			s.setNotify(nil)
		}
	}()
	sent := make([]time.Duration, len(f.ids))
	outstanding := 0
	post := func(i int) {
		attempted++
		sent[i] = f.now()
		if f.step(i) {
			outstanding++
		} else {
			failed++
		}
	}
	w := newWindower()
	deadline := time.Now().Add(d)
	for i := range f.ids {
		post(i)
	}
	timeout := time.NewTimer(d + drainTimeout)
	defer timeout.Stop()
	for outstanding > 0 {
		select {
		case c := <-done:
			if c.round != f.requested[c.tenant] {
				continue // a round from before the phase
			}
			outstanding--
			w.add(ms(c.at - sent[c.tenant]))
			if time.Now().Before(deadline) {
				post(c.tenant)
			}
		case <-timeout.C:
			return w.wins, attempted, failed + outstanding
		}
	}
	return w.wins, attempted, failed
}

// checkHostedLocal compares tenant i's served snapshot with
// serve.RunLocal on the same config and round count.
func (f *fleet) checkHostedLocal(i int) error {
	sr, err := f.stats(i)
	if err != nil {
		return err
	}
	local, err := serve.RunLocal(f.cfgs[i], sr.Stats.Rounds)
	if err != nil {
		return err
	}
	a, _ := json.Marshal(sr.Stats)
	b, _ := json.Marshal(local)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("tenant %d: served snapshot %s != RunLocal %s", i, a, b)
	}
	return nil
}

// framesOK sums CRC-valid frames and scheduled device-rounds over all
// tenants' served snapshots.
func (f *fleet) framesOK() (ok, scheduled int64, err error) {
	for i := range f.ids {
		sr, err := f.stats(i)
		if err != nil {
			return 0, 0, err
		}
		ok += sr.Stats.FramesOK
		scheduled += sr.Stats.Devices
	}
	return ok, scheduled, nil
}

// setupFleets starts the fleet setups times, keeping the last; set-up
// time is each start's wall time, warm-up rounds included.
func setupFleets(seed int64, n int) (*fleet, []float64, error) {
	secs := make([]float64, 0, n)
	for k := 0; ; k++ {
		t0 := time.Now()
		f, err := startFleet(seed)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if k == n-1 {
			return f, secs, nil
		}
		f.close()
	}
}

// medianBy returns the nearest-rank median element of xs by key.
func medianBy[T any](xs []T, key func(T) float64) T {
	sorted := append([]T(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	return sorted[rank(len(sorted), 0.5)-1]
}

// runFleet is the untraced serve_fleet run: fleetCycles cycles, each the
// rate ladder followed by a slice of closed-loop saturation. Every
// figure is a median over the run's sub-phases or windows, so a host
// stall confined to one of them does not move it.
func runFleet(seed int64, seconds float64) (*result, error) {
	f, setupSecs, err := setupFleets(seed, setups)
	if err != nil {
		return nil, err
	}
	defer f.close()
	res := &result{}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))

	start := time.Now()
	sub := map[float64][]ratePhase{}
	var wins []window
	ladder := 0.0 // seconds one pass of the ladder offers load for
	for _, rate := range fleetRates {
		ladder += phaseSteps / rate
	}
	for c := 0; c < fleetCycles; c++ {
		for _, rate := range fleetRates {
			recs, _, readErrs := f.openPhase(rng, rate, phaseSteps)
			lat, failed := stepLatencies(recs, 10*fleetLimitMs)
			res.attempted += len(recs)
			res.failed += failed
			if readErrs > 0 {
				res.problems = append(res.problems, fmt.Sprintf("%d reads failed at %g/s", readErrs, rate))
			}
			ph := ratePhase{rate: rate, served: servedRate(recs), failed: failed, growing: backlogGrowing(lat, fleetLimitMs)}
			ph.p50 = median(append([]float64(nil), lat...))
			if ph.p99, err = percentile(lat, 0.99); err != nil {
				return nil, err
			}
			sub[rate] = append(sub[rate], ph)
		}
		left := fleetCycles - c
		slice := (seconds - time.Since(start).Seconds() - float64(left-1)*ladder) / float64(left)
		w, attempted, failed := f.closedPhase(time.Duration(max(slice, 1) * float64(time.Second)))
		wins = append(wins, w...)
		res.attempted += attempted
		res.failed += failed
	}
	for len(wins) < minWindows {
		w, attempted, failed := f.closedPhase(time.Second)
		wins = append(wins, w...)
		res.attempted += attempted
		res.failed += failed
	}

	for _, i := range []int{0, hostileEvery - 1} {
		if err := f.checkHostedLocal(i); err != nil {
			res.problems = append(res.problems, "hosted≡local: "+err.Error())
		}
	}
	ok, scheduled, err := f.framesOK()
	if err != nil {
		return nil, err
	}

	var phases []ratePhase
	for _, rate := range fleetRates {
		phases = append(phases, medianBy(sub[rate], func(p ratePhase) float64 { return p.p99 }))
	}
	ref := sub[refRate]
	m := res.metrics()
	m["rounds_per_s"] = medianOf(wins, func(w window) float64 { return w.rate })
	m["round_p50_ms"] = medianOf(wins, func(w window) float64 { return w.p50 })
	m["round_p99_ms"] = medianOf(wins, func(w window) float64 { return w.p99 })
	m["cpu_ms_per_round"] = medianOf(wins, func(w window) float64 { return w.cpuPerOp })
	m["step_p50_ms"] = medianBy(ref, func(p ratePhase) float64 { return p.p50 }).p50
	m["step_p99_ms"] = medianBy(ref, func(p ratePhase) float64 { return p.p99 }).p99
	m["max_rate_rps"] = maxRate(phases, fleetLimitMs)
	m["frames_ok_frac"] = float64(ok) / float64(scheduled)
	m["setup_s"] = median(setupSecs)
	m["peak_rss_mb"] = peakRSSMB()
	res.samples = phaseSteps
	res.notes = append(res.notes, fmt.Sprintf("saturation: %d windows of %d rounds", len(wins), windowOps))
	for _, ph := range phases {
		res.notes = append(res.notes, fmt.Sprintf("rate %6.0f/s (median of %d): served %.1f/s  step p50 %.3f ms  p99 %.3f ms  failed %d  backlog growing %v  meets %.0f ms: %v",
			ph.rate, fleetCycles, ph.served, ph.p50, ph.p99, ph.failed, ph.growing, fleetLimitMs, ph.meets(fleetLimitMs)))
	}
	return res, nil
}

// classRoundMs times a serve.RunLocal pass of tenant i's config, per
// round, and records it as a span.
func classRoundMs(f *fleet, tr *tracer, i int, name string) (float64, error) {
	id := tr.begin(name, -1)
	t0 := time.Now()
	if _, err := serve.RunLocal(f.cfgs[i], classRounds); err != nil {
		return 0, err
	}
	el := time.Since(t0)
	tr.end(id)
	return ms(el) / classRounds, nil
}

// traceFleet is the traced serve_fleet run: RunLocal passes per tenant
// class, then the reference rate untraced and traced.
func traceFleet(seed int64, seconds float64) (*result, error) {
	f, _, err := setupFleets(seed, 1)
	if err != nil {
		return nil, err
	}
	defer f.close()
	res := &result{}
	m := res.metrics()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x7ace))
	tr := newTracer(4*refSteps, 0)
	tr.epoch = f.epoch

	static, err := classRoundMs(f, tr, 0, "sim.runlocal.static")
	if err != nil {
		return nil, err
	}
	hostile, err := classRoundMs(f, tr, hostileEvery-1, "sim.runlocal.hostile")
	if err != nil {
		return nil, err
	}
	m["sim.round_static_ms"], m["sim.round_hostile_ms"] = static, hostile
	classMs := func(i int) float64 {
		if isHostile(i) {
			return hostile
		}
		return static
	}

	plain, _, _ := f.openPhase(rng, refRate, refSteps)
	plainLat, failed := stepLatencies(plain, 10*fleetLimitMs)
	res.attempted += len(plain)
	res.failed += failed

	// Traced phase: the queue sampler reads /metrics beside the load.
	stop := make(chan struct{})
	var queued []float64
	var sampleErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mm, err := f.metricsSnapshot()
				if err != nil {
					sampleErr = err
					return
				}
				queued = append(queued, float64(mm["queued_turns"]))
			}
		}
	}()
	rt0 := sampleRuntime()
	recs, reads, readErrs := f.openPhase(rng, refRate, refSteps)
	rt := diffRuntime(rt0, sampleRuntime(), len(recs))
	close(stop)
	<-sampled
	if sampleErr != nil {
		return nil, sampleErr
	}
	lat, failed := stepLatencies(recs, 10*fleetLimitMs)
	res.attempted += len(recs)
	res.failed += failed
	if readErrs > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d reads failed", readErrs))
	}

	var accept, fairWait, late []float64
	for k, r := range recs {
		late = append(late, r.lateMs())
		root := tr.record("serve.step", -1, int64(k), r.sent, r.accepted)
		if !r.ok || r.done < 0 {
			continue
		}
		tr.record("serve.stream", root, int64(k), r.accepted, r.done)
		accept = append(accept, ms(r.accepted-r.sent))
		fairWait = append(fairWait, ms(r.done-r.accepted)-classMs(r.tenant))
	}
	mm, err := f.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	missed := 0
	for _, s := range f.streams {
		s.mu.Lock()
		missed += s.missed
		s.mu.Unlock()
	}

	var pct = func(xs []float64, p float64) float64 {
		v, perr := percentile(append([]float64(nil), xs...), p)
		if perr != nil && err == nil {
			err = perr
		}
		return v
	}
	m["serve.accept_ms_p50"] = pct(accept, 0.5)
	m["serve.accept_ms_p99"] = pct(accept, 0.99)
	m["serve.read_ms_p50"] = pct(reads, 0.5)
	m["serve.read_ms_p99"] = pct(reads, 0.99)
	m["pool.fair_wait_ms_p50"] = pct(fairWait, 0.5)
	m["pool.fair_wait_ms_p99"] = pct(fairWait, 0.99)
	m["pool.queued_turns_mean"] = mean(queued)
	m["pool.queued_turns_max"] = maxOf(queued)
	m["serve.throttled"] = float64(mm["throttled_total"])
	m["serve.http_errors"] = float64(mm["http_errors_total"])
	m["serve.round_errors"] = float64(mm["round_errors_total"])
	m["serve.stream_missed"] = float64(missed)
	m["gen.late_ms_p99"] = pct(late, 0.99)
	m["runtime.allocs_per_round"] = rt.allocsPerOp
	m["runtime.gc_per_kround"] = rt.gcPerKOp
	m["runtime.sched_wait_p99_us"] = rt.schedWaitP99us
	m["runtime.cpu_util"] = rt.cpuUtil
	m["trace.overhead_frac"] = pct(lat, 0.5)/pct(plainLat, 0.5) - 1
	if err != nil {
		return nil, err
	}
	for _, i := range []int{0, hostileEvery - 1} {
		if err := f.checkHostedLocal(i); err != nil {
			res.problems = append(res.problems, "hosted≡local: "+err.Error())
		}
	}
	res.samples = len(recs)
	tr.keepAll()
	res.spans = tr
	return res, nil
}
