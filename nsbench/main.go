// Command nsbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks the simulator's outputs, and prints
// every metric by name and unit, ending with one JSON result line:
//
//	go run . --workload dense256 --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced; --trace 1
// reports the per-layer metrics from a traced run and writes its spans
// to --spans. See README.md for the workloads, metrics and span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// result is one run's outcome before it is printed.
type result struct {
	attempted int
	failed    int
	samples   int      // samples behind the reported percentiles
	problems  []string // failed correctness checks
	notes     []string // extra human-readable lines
	values    map[string]float64
	spans     *tracer // a traced run's spans, written to the span file
}

func (r *result) metrics() map[string]float64 {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	return r.values
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"dense256", "soft4x32", "serve_fleet"}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "measured run length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", "", "span file of a traced run (default .bench_build/nsbench/spans-<workload>-<seed>.ndjson)")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "nsbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, spanPath string) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if spanPath == "" {
		spanPath = filepath.Join(".bench_build", "nsbench", fmt.Sprintf("spans-%s-%d.ndjson", workload, seed))
	}
	host := newHostRecord(workload, seed, seconds, trace == 1)
	steal0, total0 := stealCounter()

	var res *result
	var err error
	spec, isRound := roundSpecs[workload]
	switch {
	case isRound && trace == 0:
		res, err = runRounds(spec, seed, seconds)
	case isRound:
		res, err = traceRounds(spec, seed, seconds)
	case workload == "serve_fleet" && trace == 0:
		res, err = runFleet(seed, seconds)
	case workload == "serve_fleet":
		res, err = traceFleet(seed, seconds)
	default:
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if steal1, total1 := stealCounter(); total1 > total0 {
		host.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if res.spans != nil {
		if err := res.spans.write(spanPath, host); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}

	catalog := endToEnd
	if trace == 1 {
		catalog = perLayer
	}
	out := output{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	ms := newMetricSet()
	for _, c := range catalog {
		v, ok := res.values[c.name]
		if !ok && trace == 0 {
			return fmt.Errorf("%s: end-to-end metric %s not measured", workload, c.name)
		}
		// A per-layer metric the workload's path does not cross reads 0.
		if err := ms.set(c.name, v, c.unit); err != nil {
			return err
		}
		out.Metrics[c.name] = ms.byKey[c.name]
	}

	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostLine)
	fmt.Printf("%s: %d operations attempted, %d failed, %d samples behind each percentile\n",
		workload, res.attempted, res.failed, res.samples)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, name := range ms.names {
		v := ms.byKey[name]
		fmt.Printf("  %-28s %16.6f %s\n", name, v.Value, v.Unit)
	}
	if trace == 0 {
		for _, c := range informational {
			v, ok := res.values[c.name]
			if !ok {
				return fmt.Errorf("%s: metric %s not measured", workload, c.name)
			}
			fmt.Printf("  %-28s %16.6f %s (not gated)\n", c.name, v, c.unit)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	out.Correct = len(res.problems) == 0 && res.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}
