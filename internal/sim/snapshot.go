package sim

// Snapshot/export seam: long-lived hosts (netscatter-serve) fold every
// round's statistics into an Accumulator and export consistent
// Snapshot values concurrently with round stepping. RoundStats and
// MultiRoundStats are per-round views into arena-backed state, valid
// only until the next round; the Accumulator is the durable,
// concurrency-safe aggregate built from them.

import "sync"

// Snapshot is a self-contained aggregate of completed rounds, safe to
// retain and serialize. PER/BER/goodput are derived at snapshot time so
// the exported document carries both the raw counters (mergeable across
// snapshots) and the rates a dashboard wants.
type Snapshot struct {
	// Rounds completed; AllLostRounds of them scheduled devices but
	// delivered nothing.
	Rounds        int `json:"rounds"`
	AllLostRounds int `json:"all_lost_rounds"`

	// Device-round counters summed over rounds (a device transmitting
	// in R rounds counts R times).
	Devices  int64 `json:"device_rounds"`
	Detected int64 `json:"detected"`
	FramesOK int64 `json:"frames_ok"`

	// Payload accounting, in bits.
	BitErrors     int64 `json:"bit_errors"`
	TotalBits     int64 `json:"total_bits"`
	ScheduledBits int64 `json:"scheduled_bits"`

	// Simulated on-air time, summed over rounds.
	SimSeconds float64 `json:"sim_seconds"`

	// Soft cross-AP combining totals; zero unless the network ran with
	// SetSoftCombining enabled.
	SoftFramesOK int64 `json:"soft_frames_ok,omitempty"`
	SoftRounds   int   `json:"soft_rounds,omitempty"`

	// Per-AP totals: the best single AP's CRC-valid frames (the maximum
	// over APs, summed over rounds) and every AP's CRC-valid frames
	// (summed over APs and rounds) — the baselines cross-AP combining
	// is measured against.
	BestAPFramesOK int64 `json:"best_ap_frames_ok"`
	PerAPFramesOK  int64 `json:"per_ap_frames_ok"`

	// Trajectory outcome counters; zero for rounds stepped without
	// adversity.
	TrajectoryEvents

	// Derived rates (filled by Snapshot()).
	PER        float64 `json:"per"`
	BER        float64 `json:"ber"`
	GoodputBps float64 `json:"goodput_bps"`
}

// Merge folds another snapshot's counters into s and refreshes the
// derived rates. Snapshots are mergeable by design — every counter is
// a plain sum over rounds — which is what lets a campaign merge
// per-cell snapshots into one grid-wide aggregate.
func (s *Snapshot) Merge(o Snapshot) {
	s.Rounds += o.Rounds
	s.AllLostRounds += o.AllLostRounds
	s.Devices += o.Devices
	s.Detected += o.Detected
	s.FramesOK += o.FramesOK
	s.BitErrors += o.BitErrors
	s.TotalBits += o.TotalBits
	s.ScheduledBits += o.ScheduledBits
	s.SimSeconds += o.SimSeconds
	s.SoftFramesOK += o.SoftFramesOK
	s.SoftRounds += o.SoftRounds
	s.BestAPFramesOK += o.BestAPFramesOK
	s.PerAPFramesOK += o.PerAPFramesOK
	s.TrajectoryEvents.add(&o.TrajectoryEvents)
	s.derive()
}

// derive fills the rate fields from the counters.
func (s *Snapshot) derive() {
	s.PER, s.BER, s.GoodputBps = 0, 0, 0
	if s.Devices > 0 {
		s.PER = 1 - float64(s.FramesOK)/float64(s.Devices)
	}
	if s.TotalBits > 0 {
		s.BER = float64(s.BitErrors) / float64(s.TotalBits)
	}
	if s.SimSeconds > 0 {
		s.GoodputBps = float64(s.TotalBits-s.BitErrors) / s.SimSeconds
	}
}

// Accumulator folds per-round statistics into a running Snapshot.
// All methods are safe for concurrent use; a Snapshot call observes a
// consistent state (never a torn round). The zero value is ready to
// use. Adding allocates nothing, so a tenant's round hot path stays
// allocation-free.
type Accumulator struct {
	mu sync.Mutex
	s  Snapshot
}

// AddMulti folds one multi-AP round: the combined outcome counts as
// the round; the per-AP totals, the round's trajectory events and the
// soft-combining outcome (when the round carried one) accumulate
// alongside.
func (a *Accumulator) AddMulti(m MultiRoundStats, soft bool) {
	best := m.bestAPFramesOK()
	perAP := 0
	for _, s := range m.PerAP {
		perAP += s.FramesOK
	}
	a.mu.Lock()
	a.addLocked(m.Combined)
	a.s.BestAPFramesOK += int64(best)
	a.s.PerAPFramesOK += int64(perAP)
	a.s.TrajectoryEvents.add(&m.Events)
	if soft {
		a.s.SoftFramesOK += int64(m.Soft.FramesOK)
		a.s.SoftRounds++
	}
	a.mu.Unlock()
}

func (a *Accumulator) addLocked(r RoundStats) {
	s := &a.s
	s.Rounds++
	if r.Devices > 0 && r.FramesOK == 0 {
		s.AllLostRounds++
	}
	s.Devices += int64(r.Devices)
	s.Detected += int64(r.Detected)
	s.FramesOK += int64(r.FramesOK)
	s.BitErrors += int64(r.BitErrors)
	s.TotalBits += int64(r.TotalBits)
	s.ScheduledBits += int64(r.ScheduledBits)
	s.SimSeconds += r.RoundSecs
}

// Snapshot returns a consistent copy of the aggregate with derived
// rates filled in.
func (a *Accumulator) Snapshot() Snapshot {
	a.mu.Lock()
	s := a.s
	a.mu.Unlock()
	s.derive()
	return s
}

// Rounds reports the completed-round count (a cheap progress probe).
func (a *Accumulator) Rounds() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s.Rounds
}
