package main

// Open-loop load accounting: a seeded arrival schedule, per-step timing
// from due time, generator lateness, and the max-rate rule.

import (
	"math/rand/v2"
	"time"
)

// event is one scheduled step request: when it is due, relative to the
// phase start, and which tenant it targets.
type event struct {
	due    time.Duration
	tenant int
}

// poissonSchedule draws n arrivals at the given mean rate (per second)
// with exponential gaps, each for a uniformly drawn tenant. The same rng
// state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, n, tenants int) []event {
	evs := make([]event, n)
	var t float64
	for i := range evs {
		t += rng.ExpFloat64() / rate
		evs[i] = event{due: time.Duration(t * float64(time.Second)), tenant: rng.IntN(tenants)}
	}
	return evs
}

// stepRec is one step request's timeline, as offsets from the run's
// epoch. done < 0 means the round never appeared on the stream.
type stepRec struct {
	tenant   int
	due      time.Duration
	sent     time.Duration
	accepted time.Duration
	done     time.Duration
	ok       bool // the server accepted it (HTTP 202)
}

// lateMs is how late the generator sent the step.
func (s stepRec) lateMs() float64 { return ms(s.sent - s.due) }

// stepLatencies returns each step's latency from due time to its round
// appearing on the stream, in ms, in schedule order. A refused or never
// observed step fails and counts as penaltyMs, which callers choose
// above any latency limit.
func stepLatencies(recs []stepRec, penaltyMs float64) (lat []float64, failed int) {
	lat = make([]float64, len(recs))
	for i, r := range recs {
		if !r.ok || r.done < 0 {
			lat[i] = penaltyMs
			failed++
			continue
		}
		lat[i] = ms(r.done - r.due)
	}
	return lat, failed
}

// backlogGrowing reports whether latencies (in schedule order) drift up
// over a phase: the median of the last fifth exceeds the median of the
// first fifth by more than a quarter of the limit. A server that keeps
// up has no such drift however busy it is.
func backlogGrowing(lat []float64, limitMs float64) bool {
	k := len(lat) / 5
	if k == 0 {
		return false
	}
	first := append([]float64(nil), lat[:k]...)
	last := append([]float64(nil), lat[len(lat)-k:]...)
	return median(last)-median(first) > limitMs/4
}

// ratePhase is one fixed offered rate's outcome.
type ratePhase struct {
	rate    float64 // offered, steps per second
	served  float64 // measured: steps completed per second
	p50     float64
	p99     float64
	failed  int
	growing bool
}

// meets reports whether the phase meets the latency limit: no failed
// step, p99 within the limit, no growing backlog.
func (p ratePhase) meets(limitMs float64) bool {
	return p.failed == 0 && p.p99 <= limitMs && !p.growing
}

// servedRate is the rate a phase's steps completed at: completed steps
// over the span from the first due time to the last completion.
func servedRate(recs []stepRec) float64 {
	var n int
	var last time.Duration
	for _, r := range recs {
		if r.ok && r.done >= 0 {
			n++
			last = max(last, r.done)
		}
	}
	if n == 0 || last <= recs[0].due {
		return 0
	}
	return float64(n) / (last - recs[0].due).Seconds()
}

// maxRate returns the served rate of the highest offered rate whose
// phase meets the limit, 0 when none does.
func maxRate(phases []ratePhase, limitMs float64) float64 {
	best := ratePhase{}
	for _, p := range phases {
		if p.meets(limitMs) && p.rate > best.rate {
			best = p
		}
	}
	return best.served
}
