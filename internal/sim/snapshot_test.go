package sim

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// statsFixture builds a deterministic set of per-round stats shaped
// like real rounds (including all-lost rounds).
func statsFixture(n int) []RoundStats {
	out := make([]RoundStats, n)
	for i := range out {
		devices := 1 + i%7
		ok := i % (devices + 1)
		out[i] = RoundStats{
			Devices:       devices,
			Detected:      min(devices, ok+1),
			FramesOK:      ok,
			BitErrors:     i % 5,
			TotalBits:     48 * (ok + 1),
			ScheduledBits: 48 * devices,
			RoundSecs:     0.001 * float64(1+i%3),
		}
	}
	return out
}

// TestAccumulatorSerialOracle: the accumulator's totals equal a plain
// serial fold of the same rounds.
func TestAccumulatorSerialOracle(t *testing.T) {
	rounds := statsFixture(200)
	var a Accumulator
	var want Snapshot
	for _, r := range rounds {
		a.AddMulti(MultiRoundStats{Combined: r}, false)
		want.Rounds++
		if r.Devices > 0 && r.FramesOK == 0 {
			want.AllLostRounds++
		}
		want.Devices += int64(r.Devices)
		want.Detected += int64(r.Detected)
		want.FramesOK += int64(r.FramesOK)
		want.BitErrors += int64(r.BitErrors)
		want.TotalBits += int64(r.TotalBits)
		want.ScheduledBits += int64(r.ScheduledBits)
		want.SimSeconds += r.RoundSecs
	}
	want.derive()
	got := a.Snapshot()
	if got != want {
		t.Fatalf("snapshot %+v != serial oracle %+v", got, want)
	}
	if got.PER != 1-float64(got.FramesOK)/float64(got.Devices) {
		t.Fatalf("derived PER %v inconsistent with counters", got.PER)
	}
}

// TestAccumulatorConcurrent: folding the same rounds from many
// goroutines (with interleaved snapshots) matches the serial oracle —
// the race detector checks the locking, the totals check atomicity.
func TestAccumulatorConcurrent(t *testing.T) {
	rounds := statsFixture(400)
	var serial Accumulator
	for _, r := range rounds {
		serial.AddMulti(MultiRoundStats{Combined: r}, false)
	}
	want := serial.Snapshot()

	const workers = 8
	var a Accumulator
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(rounds); i += workers {
				a.AddMulti(MultiRoundStats{Combined: rounds[i]}, false)
				if i%13 == 0 {
					// Interleaved snapshots must always be internally
					// consistent: counters never exceed the full fold.
					s := a.Snapshot()
					if s.FramesOK > want.FramesOK || s.Rounds > want.Rounds {
						t.Errorf("snapshot overshoots oracle: %+v", s)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := a.Snapshot(); got != want {
		t.Fatalf("concurrent fold %+v != serial oracle %+v", got, want)
	}
}

// eventsFixture is one round's trajectory events with every counter
// distinct and nonzero, so a dropped or crossed field shows.
func eventsFixture() TrajectoryEvents {
	e := TrajectoryEvents{
		SkippedRounds:      1,
		Reassociations:     2,
		DevicesLostByAP:    3,
		LostToDropout:      4,
		LostToInterference: 5,
		LostToFading:       6,
		LostToOther:        7,
	}
	for _, lat := range []int{0, 2, 2, 9, RecoveryBuckets - 1, 40} {
		e.recovered(lat)
	}
	return e
}

// TestAccumulatorMulti: AddMulti folds the combined round, the per-AP
// totals and the round's trajectory events, and tracks soft totals only
// when the round carried a soft outcome; Merge sums every counter the
// same way.
func TestAccumulatorMulti(t *testing.T) {
	var a Accumulator
	m := MultiRoundStats{
		Combined: RoundStats{Devices: 4, Detected: 3, FramesOK: 2, TotalBits: 96, ScheduledBits: 192, RoundSecs: 0.01},
		Soft:     RoundStats{Devices: 4, Detected: 4, FramesOK: 3, TotalBits: 96, ScheduledBits: 192},
		PerAP:    []RoundStats{{Devices: 4, FramesOK: 1}, {Devices: 4, FramesOK: 2}, {Devices: 4}},
		Events:   eventsFixture(),
	}
	a.AddMulti(m, true)
	a.AddMulti(m, false)
	s := a.Snapshot()
	if s.Rounds != 2 || s.FramesOK != 4 {
		t.Fatalf("combined fold wrong: %+v", s)
	}
	if s.SoftRounds != 1 || s.SoftFramesOK != 3 {
		t.Fatalf("soft fold wrong: %+v", s)
	}
	if s.BestAPFramesOK != 4 || s.PerAPFramesOK != 6 {
		t.Fatalf("per-AP fold wrong: best %d, all %d", s.BestAPFramesOK, s.PerAPFramesOK)
	}
	want := eventsFixture()
	want.add(&m.Events)
	if s.TrajectoryEvents != want {
		t.Fatalf("events fold %+v, want %+v", s.TrajectoryEvents, want)
	}
	if e := s.TrajectoryEvents; e.Recoveries != 12 || e.RecoveryRounds != 2*(0+2+2+9+15+40) ||
		e.RecoveryHist[2] != 4 || e.RecoveryHist[RecoveryBuckets-1] != 4 {
		t.Fatalf("recovery counters wrong: %+v", e)
	}

	// Merge of the two one-round halves equals the two-round fold.
	var x, y Accumulator
	x.AddMulti(m, true)
	y.AddMulti(m, false)
	merged := x.Snapshot()
	merged.Merge(y.Snapshot())
	if merged != s {
		t.Fatalf("merged %+v != folded %+v", merged, s)
	}
}

// TestRecoveryLatencyHistogram: the histogram's mean and quantiles
// equal those of the sorted latency list while every latency sits
// below the open bucket, and the open bucket reads as its bound.
func TestRecoveryLatencyHistogram(t *testing.T) {
	var e TrajectoryEvents
	lats := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	for _, l := range lats {
		e.recovered(l)
	}
	sorted := append([]int(nil), lats...)
	sort.Ints(sorted)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		idx := max(0, int(math.Ceil(q*float64(len(sorted))))-1)
		if got := e.RecoveryLatencyQuantile(q); got != float64(sorted[idx]) {
			t.Errorf("q=%v: histogram quantile %v, list quantile %v", q, got, sorted[idx])
		}
	}
	if got, want := e.MeanRecoveryLatency(), 44.0/11; got != want {
		t.Errorf("mean %v, want %v", got, want)
	}
	e.recovered(100)
	if got := e.RecoveryLatencyQuantile(1); got != RecoveryBuckets-1 {
		t.Errorf("open-bucket quantile %v, want %d", got, RecoveryBuckets-1)
	}
	if got, want := e.MeanRecoveryLatency(), 144.0/12; got != want {
		t.Errorf("mean with a long recovery %v, want exact %v", got, want)
	}
	var none TrajectoryEvents
	if none.MeanRecoveryLatency() != 0 || none.RecoveryLatencyQuantile(0.9) != 0 {
		t.Error("empty histogram must read 0")
	}
}

// TestAccumulatorAddAllocs: the fold is allocation-free — it sits on
// every tenant's round hot path in netscatter-serve.
func TestAccumulatorAddAllocs(t *testing.T) {
	var a Accumulator
	r := statsFixture(1)[0]
	m := MultiRoundStats{Combined: r, Soft: r}
	if n := testing.AllocsPerRun(100, func() { a.AddMulti(MultiRoundStats{Combined: r}, false) }); n != 0 {
		t.Fatalf("single-AP AddMulti allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.AddMulti(m, true) }); n != 0 {
		t.Fatalf("AddMulti allocates %v/op", n)
	}
}

// TestSnapshotJSON: the export round-trips through JSON with the
// derived rates present.
func TestSnapshotJSON(t *testing.T) {
	var a Accumulator
	for i, r := range statsFixture(50) {
		m := MultiRoundStats{Combined: r, Soft: r, PerAP: []RoundStats{r, r}}
		if i%3 == 0 {
			m.Events = eventsFixture()
		}
		a.AddMulti(m, i%2 == 0)
	}
	s := a.Snapshot()
	if s.SoftRounds == 0 || s.BestAPFramesOK == 0 || s.PerAPFramesOK == 0 || s.Recoveries == 0 {
		t.Fatalf("fixture left a counter at zero: %+v", s)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("JSON round-trip changed the snapshot: %+v != %+v", back, s)
	}
	for _, key := range []string{`"best_ap_frames_ok"`, `"per_ap_frames_ok"`, `"skipped_rounds"`,
		`"reassociations"`, `"devices_lost_by_ap"`, `"lost_to_dropout"`, `"lost_to_interference"`,
		`"lost_to_fading"`, `"lost_to_other"`, `"recoveries"`, `"recovery_rounds"`, `"recovery_hist"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("snapshot JSON lacks %s", key)
		}
	}
	// A snapshot without trajectory events carries no event keys.
	plain, err := json.Marshal(Snapshot{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "recovery") || strings.Contains(string(plain), "lost_to") {
		t.Errorf("event-free snapshot JSON carries event keys: %s", plain)
	}
	if math.IsNaN(s.PER) || math.IsNaN(s.BER) || math.IsNaN(s.GoodputBps) {
		t.Fatalf("derived rates not finite: %+v", s)
	}
}

// TestAccumulatorLiveRounds: real network rounds stepped in one
// goroutine while other goroutines snapshot concurrently — snapshots
// stay internally consistent at every instant, and the final export
// equals the serial oracle fold of the exact per-round stats.
func TestAccumulatorLiveRounds(t *testing.T) {
	net := testMultiAPNetwork(t, 8, 2, 21)
	oracle := testMultiAPNetwork(t, 8, 2, 21)
	const rounds = 24

	var want Snapshot
	for i := 0; i < rounds; i++ {
		stats, err := oracle.RunRound(8)
		if err != nil {
			t.Fatal(err)
		}
		var w Accumulator
		w.AddMulti(stats, false)
		s := w.Snapshot()
		want.Rounds += s.Rounds
		want.AllLostRounds += s.AllLostRounds
		want.Devices += s.Devices
		want.Detected += s.Detected
		want.FramesOK += s.FramesOK
		want.BitErrors += s.BitErrors
		want.TotalBits += s.TotalBits
		want.ScheduledBits += s.ScheduledBits
		want.SimSeconds += s.SimSeconds
		want.BestAPFramesOK += s.BestAPFramesOK
		want.PerAPFramesOK += s.PerAPFramesOK
		want.TrajectoryEvents.add(&s.TrajectoryEvents)
	}
	want.derive()

	var a Accumulator
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := a.Snapshot()
				if s.FramesOK > s.Devices || s.Rounds > rounds {
					t.Errorf("inconsistent live snapshot: %+v", s)
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		stats, err := net.RunRound(8)
		if err != nil {
			t.Fatal(err)
		}
		a.AddMulti(stats, false)
	}
	close(done)
	wg.Wait()
	if got := a.Snapshot(); got != want {
		t.Fatalf("live fold %+v != serial oracle %+v", got, want)
	}
}
