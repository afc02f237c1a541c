package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1, 0.5, 1}, {2, 0.5, 1}, {3, 0.5, 2}, {4, 0.5, 2},
		{100, 0.99, 99}, {1000, 0.99, 990}, {1001, 0.99, 991}, {1100, 0.99, 1089},
		{10, 1, 10}, {10, 0.001, 1},
	} {
		if got := rank(c.n, c.p); got != c.want {
			t.Errorf("rank(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	v, err := percentile(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v := median(seq(5)); v != 3 {
		t.Errorf("median of 1..5 = %v, want 3", v)
	}
}

// TestTailRule pins "at least ten samples beyond the reported p99": 1000
// samples is the least that qualifies.
func TestTailRule(t *testing.T) {
	if got := tailBeyond(1000, 0.99); got != 10 {
		t.Errorf("tailBeyond(1000, .99) = %d, want 10", got)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 over 999 samples accepted with 9 beyond it")
	}
	if _, err := percentile(seq(1000), 0.99); err != nil {
		t.Errorf("p99 over 1000 samples refused: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
	if _, err := percentile(seq(3), 0.5); err != nil {
		t.Errorf("median needs no tail: %v", err)
	}
}

// TestSelfTimeParallelChildren: a receive span whose children ran on two
// pool workers at once must subtract their union, not their sum.
func TestSelfTimeParallelChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "sim.round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "air.receive", Start: 10, End: 90},
		// worker 0 and worker 1 overlap on [30, 40); the union of the
		// three children is [20, 50) ∪ [60, 70) = 40.
		{ID: 2, Parent: 1, Name: "synth.template", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "synth.template", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "air.accumulate", Start: 60, End: 70},
		// a child reaching past its parent counts only inside it.
		{ID: 5, Parent: 0, Name: "core.decode", Start: 85, End: 120},
	}
	self := selfTimes(spans)
	want := map[int32]int64{0: 100 - 80 - 10, 1: 80 - 40, 2: 20, 3: 20, 4: 10, 5: 35}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := coverage(nil, 0, 10); got != 0 {
		t.Errorf("coverage of nothing = %d", got)
	}
	if got := coverage([]interval{{0, 5}, {5, 8}, {1, 2}}, 0, 10); got != 8 {
		t.Errorf("touching intervals cover %d, want 8", got)
	}
}

func TestTracerConcurrentBegin(t *testing.T) {
	tr := newTracer(64, 1)
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 40; i++ {
				tr.end(tr.begin("x", -1))
			}
		}()
	}
	<-done
	<-done
	if got := len(tr.spans()); got != 64 {
		t.Errorf("arena holds %d spans, want 64", got)
	}
	if got := tr.lost.Load(); got != 16 {
		t.Errorf("lost %d spans, want 16", got)
	}
	tr.reset(1)
	if len(tr.kept) != 64 || len(tr.spans()) != 0 {
		t.Errorf("reset kept %d and left %d", len(tr.kept), len(tr.spans()))
	}
}

// TestStepLatencyFromDue: latency counts from the due time, so a late
// generator's delay is charged to the step; refused and unobserved steps
// fail at the penalty.
func TestStepLatencyFromDue(t *testing.T) {
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	recs := []stepRec{
		{due: msd(10), sent: msd(10), accepted: msd(10.1), done: msd(11), ok: true},
		{due: msd(20), sent: msd(23), accepted: msd(23.1), done: msd(24), ok: true}, // sent 3 ms late
		{due: msd(30), sent: msd(30), accepted: msd(30.1), done: -1, ok: true},      // never observed
		{due: msd(40), sent: msd(40), accepted: msd(40.1), done: -1, ok: false},     // refused
	}
	lat, failed := stepLatencies(recs, 500)
	want := []float64{1, 4, 500, 500}
	for i := range want {
		if math.Abs(lat[i]-want[i]) > 1e-9 {
			t.Errorf("latency %d = %v, want %v", i, lat[i], want[i])
		}
	}
	if failed != 2 {
		t.Errorf("failed = %d, want 2", failed)
	}
	if got := recs[1].lateMs(); math.Abs(got-3) > 1e-9 {
		t.Errorf("lateness = %v, want 3", got)
	}
	// Two completed steps between the first due time (10 ms) and the
	// last completion (24 ms).
	if got := servedRate(recs); math.Abs(got-2/0.014) > 1e-6 {
		t.Errorf("served rate = %v, want %v", got, 2/0.014)
	}
}

func TestBacklogAndMaxRate(t *testing.T) {
	flat := make([]float64, 100)
	rising := make([]float64, 100)
	for i := range flat {
		flat[i] = 2 + float64(i%3)
		rising[i] = 2 + float64(i)*0.5
	}
	if backlogGrowing(flat, 50) {
		t.Error("flat latencies read as a growing backlog")
	}
	if !backlogGrowing(rising, 50) {
		t.Error("latencies rising 50 ms over the phase not flagged")
	}
	phases := []ratePhase{
		{rate: 400, served: 398, p99: 3},
		{rate: 800, served: 790, p99: 60},              // over the limit
		{rate: 1600, served: 1590, p99: 10, failed: 1}, // a failed step fails the rate
	}
	if got := maxRate(phases, 50); got != 398 {
		t.Errorf("maxRate = %v, want 400/s's served 398", got)
	}
	phases[2].failed = 0
	if got := maxRate(phases, 50); got != 1590 {
		t.Errorf("maxRate = %v, want 1600/s's served 1590", got)
	}
	if got := maxRate([]ratePhase{{rate: 400, served: 400, growing: true}}, 50); got != 0 {
		t.Errorf("maxRate with a growing backlog = %v, want 0", got)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewPCG(7, 1)), 800, 4000, 32)
	b := poissonSchedule(rand.New(rand.NewPCG(7, 1)), 800, 4000, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different event %d", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("event %d due before event %d", i, i-1)
		}
		if a[i].tenant < 0 || a[i].tenant >= 32 {
			t.Fatalf("tenant %d out of range", a[i].tenant)
		}
	}
	if rate := 4000 / a[len(a)-1].due.Seconds(); math.Abs(rate/800-1) > 0.1 {
		t.Errorf("offered rate %v, want ~800", rate)
	}
}

func TestMetricNames(t *testing.T) {
	m := newMetricSet()
	for _, bad := range []string{"", "_lead", "has space", "semi;colon", "slash/name", string(make([]byte, 65))} {
		if m.set(bad, 1, "ms") == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, bad := range []string{"", "m s", "waytoolongunitname"} {
		if m.set("ok", 1, bad) == nil {
			t.Errorf("unit %q accepted", bad)
		}
	}
	if m.set("x", math.NaN(), "ms") == nil {
		t.Error("NaN accepted")
	}
	if err := m.set("core.decode_ms", 1, "ms"); err != nil {
		t.Fatal(err)
	}
	if m.set("core.decode_ms", 2, "ms") == nil {
		t.Error("duplicate name accepted")
	}
	for _, cat := range [][]catalogEntry{endToEnd, perLayer} {
		for _, c := range cat {
			if !metricName.MatchString(c.name) || !unitName.MatchString(c.unit) {
				t.Errorf("catalog entry %+v outside the name or unit alphabet", c)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// benchmark declaration at the repository root in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []catalogEntry) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i])
		}
	}
}

func TestHistQuantile(t *testing.T) {
	a := &metrics.Float64Histogram{Counts: []uint64{5, 5, 5}, Buckets: []float64{0, 1, 2, math.Inf(1)}}
	b := &metrics.Float64Histogram{Counts: []uint64{5, 104, 6}, Buckets: a.Buckets}
	// 100 new samples: 99 in [1,2), one in [2,inf).
	if got := histQuantile(a, b, 0.99); got != 2 {
		t.Errorf("p99 = %v, want the [1,2) bucket's upper edge 2", got)
	}
	if got := histQuantile(a, b, 1); got != 2 {
		t.Errorf("p100 = %v, want the unbounded bucket's lower edge 2", got)
	}
}

// TestReplicaMatchesSimulator: the traced replica reproduces the
// simulator's rounds exactly, traced or not, for both network types.
func TestReplicaMatchesSimulator(t *testing.T) {
	for _, spec := range []roundSpec{{devices: 16, aps: 1}, {devices: 8, aps: 2, soft: true}} {
		b, err := spec.build(geoSeed(3, 0))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.replica()
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(1<<12, 0)
		for r := 0; r < 4; r++ {
			want, err := b.net.round()
			if err != nil {
				t.Fatal(err)
			}
			if r%2 == 1 {
				tr.reset(int64(r))
				rep.setTracer(tr)
			} else {
				rep.setTracer(nil)
			}
			got, err := rep.round()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%+v round %d: replica %+v, simulator %+v", spec, r, got.final, want.final)
			}
		}
		if len(tr.spans()) == 0 {
			t.Errorf("%+v: traced round recorded no spans", spec)
		}
	}
}
