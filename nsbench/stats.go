package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// rank returns the 1-based nearest-rank position of the p-quantile in n
// sorted samples: the ceil(p·n)-th smallest, at least 1. The product is
// nudged down before the ceiling so that p·n landing a few ulps above an
// integer (0.99·1000 = 990.0000000000001) keeps its exact rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailBeyond returns how many of n samples lie strictly beyond the
// nearest-rank p-quantile.
func tailBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentile returns the nearest-rank p-quantile of xs (sorted in
// place). It fails when fewer than minTail samples lie beyond it, so a
// reported p99 always rests on at least ten slower samples.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	if t := tailBeyond(len(xs), p); p > 0.5 && t < minTail {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it; need %d", p*100, len(xs), t, minTail)
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1], nil
}

// median is the nearest-rank p50, which needs no tail.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxOf returns the largest of xs; 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// windowOps is how many consecutive operations a measurement window
// holds: enough for its p99 to have ten samples beyond it. Reported
// rates, CPU costs and percentiles are medians over a run's windows, so
// host contention confined to a few windows does not move them.
const windowOps = minSamples

// window summarizes windowOps consecutive operations.
type window struct {
	rate     float64 // operations per second
	p50, p99 float64 // operation latency, ms
	cpuPerOp float64 // process CPU per operation, ms
}

// windower cuts a stream of operation latencies into windows.
type windower struct {
	lat   []float64
	start time.Time
	cpu   time.Duration
	wins  []window
}

func newWindower() *windower {
	return &windower{lat: make([]float64, 0, windowOps), start: time.Now(), cpu: cpuTime()}
}

// add records one operation's latency, closing a window when full.
func (w *windower) add(latMs float64) {
	w.lat = append(w.lat, latMs)
	if len(w.lat) < windowOps {
		return
	}
	win := window{
		rate:     windowOps / time.Since(w.start).Seconds(),
		cpuPerOp: ms(cpuTime()-w.cpu) / windowOps,
		p50:      median(w.lat),
	}
	win.p99, _ = percentile(w.lat, 0.99) // windowOps leaves the tail
	w.wins = append(w.wins, win)
	w.lat, w.start, w.cpu = w.lat[:0], time.Now(), cpuTime()
}

// medianOf returns the median over windows of one window figure.
func medianOf(wins []window, f func(window) float64) float64 {
	xs := make([]float64, len(wins))
	for i, w := range wins {
		xs[i] = f(w)
	}
	return median(xs)
}

// metricName is the benchmark's name alphabet: a leading letter or digit,
// then letters, digits, '_', '.' and '-', at most 64 characters.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the unit alphabet: letters, digits, '_', '/', '%', '.'
// and '-', at most 16 characters.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered metric set; order is the print order.
type metricSet struct {
	names []string
	byKey map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{byKey: map[string]metric{}} }

// set records a metric, rejecting a malformed name or unit, a repeated
// name or a value JSON cannot carry.
func (m *metricSet) set(name string, value float64, unit string) error {
	switch {
	case !metricName.MatchString(name):
		return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", name)
	case !unitName.MatchString(unit):
		return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]", name, unit)
	case math.IsNaN(value) || math.IsInf(value, 0):
		return fmt.Errorf("metric %s: value %v", name, value)
	}
	if _, dup := m.byKey[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	m.names = append(m.names, name)
	m.byKey[name] = metric{Value: value, Unit: unit}
	return nil
}
