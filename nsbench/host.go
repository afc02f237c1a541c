package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord identifies where and how a result was measured. Results
// from different hosts are not comparable; every output carries one.
type hostRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Trace      bool    `json:"trace"`
	// StealFrac is the share of the host's CPU time the hypervisor took
	// from this VM during the run (/proc/stat steal); a high value means
	// the timings measured the neighbours as much as the program.
	StealFrac float64 `json:"steal_frac"`
}

func newHostRecord(workload string, seed int64, seconds float64, trace bool) hostRecord {
	return hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// stealCounter reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it does not exist).
func stealCounter() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for _, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		steal = v
	}
	return steal, total
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or names the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample is a point-in-time read of the Go runtime counters the
// per-layer runtime metrics difference.
type runtimeSample struct {
	wall    time.Time
	cpu     time.Duration
	allocs  uint64
	gcs     uint64
	latency *metrics.Float64Histogram
}

var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{
		wall:    time.Now(),
		cpu:     cpuTime(),
		allocs:  s[0].Value.Uint64(),
		gcs:     s[1].Value.Uint64(),
		latency: s[2].Value.Float64Histogram(),
	}
}

// runtimeDelta is what the runtime did between two samples, per op.
type runtimeDelta struct {
	allocsPerOp    float64
	gcPerKOp       float64
	schedWaitP99us float64
	cpuUtil        float64 // CPU time over wall time × GOMAXPROCS
}

func diffRuntime(a, b runtimeSample, ops int) runtimeDelta {
	d := runtimeDelta{}
	if ops > 0 {
		d.allocsPerOp = float64(b.allocs-a.allocs) / float64(ops)
		d.gcPerKOp = 1000 * float64(b.gcs-a.gcs) / float64(ops)
	}
	if wall := b.wall.Sub(a.wall); wall > 0 {
		d.cpuUtil = float64(b.cpu-a.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	}
	d.schedWaitP99us = 1e6 * histQuantile(a.latency, b.latency, 0.99)
	return d
}

// histQuantile returns the upper edge of the bucket holding the
// q-quantile of the samples added between two reads of one runtime
// histogram (its lower edge when the upper one is unbounded).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(rank(int(total), q))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			hi := b.Buckets[i+1]
			if hi > 1e300 {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
