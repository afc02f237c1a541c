package sim

// Trajectory: a multi-round run of a MultiAPNetwork through a
// time-varying adversarial world — correlated fading drift, CFO random
// walks, slow mobility, device duty-cycling, interference bursts and
// AP dropout — wired to the protocol's recovery machinery: the §3.2.3
// power controller decides participation per round from the (faded)
// downlink proxy, `NeedsReassociation` trips after three consecutive
// skips, the AP's `OnDeviceLost`/`OnAssociationRequest` paths re-place
// the device, and per-device recovery latency (rounds from the outage
// event to the next CRC-valid frame) is tracked along with PER over
// time and frame-loss attribution. All adversity randomness comes from
// dsp.StreamAt-derived streams (see adversity.go), so a trajectory is
// bit-reproducible from one seed and, with every knob at zero,
// bit-identical to plain RunRound calls. See DESIGN-trajectory.md.

import (
	"fmt"
	"math"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
	"netscatter/internal/mac"
	"netscatter/internal/radio"
)

// TrajectoryConfig selects the adversity processes layered over a
// network's rounds. The zero value (beyond Rounds and Seed) disables
// every process — the configuration whose trajectory is the RunRound
// oracle.
type TrajectoryConfig struct {
	// Rounds is the expected trajectory length: it pre-sizes the
	// per-round series (Step may be called beyond it; they then grow).
	Rounds int
	// Seed keys every adversity stream. Independent of the network's
	// construction seed.
	Seed int64

	// Correlation is the per-round AR(1) fading correlation rho ∈
	// [0, 1). 0 disables evolved fading: a memoryless trajectory is
	// exactly the i.i.d. world RunRound already redraws each round.
	Correlation float64
	// DopplerHz, when positive, derives Correlation from the Jakes
	// model at the round period: rho = J0(2π·fD·T_round).
	DopplerHz float64
	// KFactorDB is the Ricean K-factor of the evolved fading
	// (default 10 dB).
	KFactorDB float64
	// RoundPeriodSec is the fade step interval (default: the network's
	// configured round duration).
	RoundPeriodSec float64

	// CFODriftHz is the per-round standard deviation of each device's
	// oscillator random walk (0 disables). The walk reflects at
	// ±CFOBoundHz (default 40 Hz, roughly a 40 ppm crystal's thermal
	// wander at the 3 MHz subcarrier).
	CFODriftHz float64
	CFOBoundHz float64

	// MobilityStepM is the per-round, per-axis standard deviation of
	// each device's position random walk in meters (0 disables). Moving
	// devices re-derive path loss and wall counts from position.
	MobilityStepM float64

	// SleepProb and WakeProb drive device duty-cycling: an awake device
	// sleeps with SleepProb per round, a sleeping one wakes with
	// WakeProb (default 0.3 when churn is on). A sleeping device keeps
	// its stale power-control and grouping state.
	SleepProb float64
	WakeProb  float64
	// LostAfterRounds is how many silent rounds the AP tolerates before
	// declaring a sleeping device lost and freeing its slot (default 3;
	// a woken device without a record must re-associate).
	LostAfterRounds int

	// BurstProb fires an interference burst per round with this
	// probability: WiFi-shaped noise or a foreign LoRa chirp train from
	// a transmitter placed uniformly on the floor at BurstEIRPdBm
	// (default 20 dBm), lasting up to BurstMaxSymbols symbol periods
	// (default 16).
	BurstProb       float64
	BurstEIRPdBm    float64
	BurstMaxSymbols int

	// APDropProb kills each AP independently per round (a dead AP's
	// decode contributes nothing; all dead is a well-formed all-lost
	// round).
	APDropProb float64

	// ReassocRounds is the association handshake cost in rounds — how
	// long a re-associating device stays off the air (default 1).
	ReassocRounds int
	// DeepFadeDB attributes a lost frame to fading when the device's
	// evolved fade sits this many dB or more below the mean channel
	// (default 15).
	DeepFadeDB float64

	// NoSeries disables the per-round series (PERPerRound,
	// FramesOKPerRound, ActivePerRound) — the only trajectory state
	// that grows without bound in the round count. Long-lived hosts
	// (netscatter-serve) step trajectories indefinitely and keep their
	// own bounded aggregates; with NoSeries set, every scalar counter,
	// the loss attribution and the recovery-latency histogram keep
	// accumulating.
	NoSeries bool
}

func (cfg TrajectoryConfig) withDefaults() TrajectoryConfig {
	if cfg.KFactorDB == 0 {
		cfg.KFactorDB = 10
	}
	if cfg.WakeProb == 0 {
		cfg.WakeProb = 0.3
	}
	if cfg.LostAfterRounds == 0 {
		cfg.LostAfterRounds = 3
	}
	if cfg.BurstEIRPdBm == 0 {
		cfg.BurstEIRPdBm = 20
	}
	if cfg.BurstMaxSymbols == 0 {
		cfg.BurstMaxSymbols = 16
	}
	if cfg.CFOBoundHz == 0 {
		cfg.CFOBoundHz = 40
	}
	if cfg.ReassocRounds == 0 {
		cfg.ReassocRounds = 1
	}
	if cfg.DeepFadeDB == 0 {
		cfg.DeepFadeDB = 15
	}
	return cfg
}

// RecoveryBuckets sizes the recovery-latency histogram: bucket b
// counts recoveries that took b rounds, and the last bucket also holds
// every longer one.
const RecoveryBuckets = 16

// TrajectoryEvents counts a trajectory's protocol events and the causes
// of its lost frames. StepFrames reports each round's counts in one
// value (MultiRoundStats.Events); TrajectoryStats and Accumulator both
// sum those values, so the two aggregates cannot disagree. Every field
// is a plain sum over rounds.
type TrajectoryEvents struct {
	SkippedRounds   int64 `json:"skipped_rounds,omitempty"`     // device-rounds sat out by the power rule
	Reassociations  int64 `json:"reassociations,omitempty"`     // completed re-associations
	DevicesLostByAP int64 `json:"devices_lost_by_ap,omitempty"` // AP-side OnDeviceLost calls (timeout or re-association)

	// Frame-loss attribution for scheduled-but-failed frames, by
	// documented precedence: every AP dead → dropout; an interference
	// burst this round → interference; the device's evolved fade below
	// -DeepFadeDB → fading; anything else (noise, collisions) → other.
	LostToDropout      int64 `json:"lost_to_dropout,omitempty"`
	LostToInterference int64 `json:"lost_to_interference,omitempty"`
	LostToFading       int64 `json:"lost_to_fading,omitempty"`
	LostToOther        int64 `json:"lost_to_other,omitempty"`

	// Closed recoveries: each counts the rounds from the outage event
	// (first skip of a streak, or wake-up, or re-association trigger —
	// whichever opened it) to the device's next CRC-valid frame.
	// RecoveryRounds sums those latencies exactly; RecoveryHist buckets
	// them (last bucket open).
	Recoveries     int64                  `json:"recoveries,omitempty"`
	RecoveryRounds int64                  `json:"recovery_rounds,omitempty"`
	RecoveryHist   [RecoveryBuckets]int64 `json:"recovery_hist,omitzero"`
}

// add folds o's counts into e.
func (e *TrajectoryEvents) add(o *TrajectoryEvents) {
	e.SkippedRounds += o.SkippedRounds
	e.Reassociations += o.Reassociations
	e.DevicesLostByAP += o.DevicesLostByAP
	e.LostToDropout += o.LostToDropout
	e.LostToInterference += o.LostToInterference
	e.LostToFading += o.LostToFading
	e.LostToOther += o.LostToOther
	e.Recoveries += o.Recoveries
	e.RecoveryRounds += o.RecoveryRounds
	for b, c := range o.RecoveryHist {
		e.RecoveryHist[b] += c
	}
}

// recovered records one closed recovery of the given latency.
func (e *TrajectoryEvents) recovered(rounds int) {
	e.Recoveries++
	e.RecoveryRounds += int64(rounds)
	e.RecoveryHist[min(rounds, RecoveryBuckets-1)]++
}

// MeanRecoveryLatency averages the closed recovery latencies in
// rounds; 0 when no recovery was observed.
func (e *TrajectoryEvents) MeanRecoveryLatency() float64 {
	if e.Recoveries == 0 {
		return 0
	}
	return float64(e.RecoveryRounds) / float64(e.Recoveries)
}

// RecoveryLatencyQuantile returns the q-quantile (0..1) of the closed
// recovery latencies — the ceil(q·n)-th smallest — read off the
// histogram: exact below RecoveryBuckets-1 rounds, that bound for
// anything longer. 0 when none were observed.
func (e *TrajectoryEvents) RecoveryLatencyQuantile(q float64) float64 {
	if e.Recoveries == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(e.Recoveries)))
	rank = max(1, min(rank, e.Recoveries))
	b, seen := 0, e.RecoveryHist[0]
	for seen < rank && b < RecoveryBuckets-1 {
		b++
		seen += e.RecoveryHist[b]
	}
	return float64(b)
}

// TrajectoryStats aggregates a trajectory's outcome: PER over time,
// the protocol events, the recovery-latency distribution, and frame
// losses attributed to their dominant cause.
type TrajectoryStats struct {
	Rounds int

	// Per-round series (index = round).
	PERPerRound      []float64
	FramesOKPerRound []int
	ActivePerRound   []int // devices scheduled (awake and participating)

	// Churn transitions.
	SleepEvents int // awake→asleep transitions
	WakeEvents  int // asleep→awake transitions

	// Adversity exposure.
	BurstRounds   int // rounds carrying an interference burst
	APDownRounds  int // dead AP-rounds (sum over rounds of dead APs)
	AllLostRounds int // rounds where devices transmitted and nothing got through

	// Skips, re-associations, recoveries and loss attribution: the sum
	// of every round's MultiRoundStats.Events.
	TrajectoryEvents
}

// Trajectory drives a MultiAPNetwork through a time-varying world.
// Not safe for concurrent use; one trajectory owns its network.
type Trajectory struct {
	net *MultiAPNetwork
	cfg TrajectoryConfig
	ap  *mac.AP

	nDevices int
	rho      float64

	// Per-device evolution state (nil slices when the process is off).
	faders []*radio.CorrelatedFader
	cfos   []*radio.CFOWalk
	mobSt  []dsp.Stream
	chrnSt []dsp.Stream

	// Per-device protocol state.
	pcs          []*mac.PowerController
	ids          []uint8 // current network ID at the AP
	known        []bool  // AP still holds a record
	asleep       []bool
	sleepRounds  []int
	reassocLeft  []int
	pendingSince []int // round an open outage began, -1 when none

	// Interference arena: one retargetable burst.
	burst     *air.Burst
	burstTx   air.MultiTransmission
	burstSNRs []float64
	burstBuf  []complex128
	burstMod  *chirp.Modulator

	adv          advRound
	ev           TrajectoryEvents // this round's events
	roundSamples int
	periodSec    float64
	round        int
	stats        TrajectoryStats
}

// NewTrajectory wraps a freshly constructed network (no rounds run
// yet) in a trajectory. The network must keep power control enabled —
// the participation rule is the recovery loop's engine — and
// power-aware allocation, so the AP-side warm start can adopt the
// association-time slot map.
func NewTrajectory(net *MultiAPNetwork, cfg TrajectoryConfig) (*Trajectory, error) {
	if net.cfg.DisablePowerControl {
		return nil, fmt.Errorf("sim: trajectory needs the device power rule enabled")
	}
	cfg = cfg.withDefaults()
	nd := len(net.slots)
	t := &Trajectory{
		net:      net,
		cfg:      cfg,
		nDevices: nd,
	}
	t.periodSec = cfg.RoundPeriodSec
	if t.periodSec <= 0 {
		t.periodSec = net.cfg.Timing.NetScatterRoundSeconds(net.cfg.Params, net.cfg.Query, net.cfg.PayloadBytes)
	}
	t.rho = cfg.Correlation
	if cfg.DopplerHz > 0 {
		t.rho = radio.JakesCorrelation(cfg.DopplerHz, t.periodSec)
	}
	t.roundSamples = len(net.rc.sigs[0])

	// Device-side state. Power controllers re-run the association-time
	// rule on the same best-AP downlink the network used, so their
	// baselines and gains replicate the network's exactly.
	t.pcs = make([]*mac.PowerController, nd)
	t.ids = make([]uint8, nd)
	t.known = make([]bool, nd)
	t.asleep = make([]bool, nd)
	t.sleepRounds = make([]int, nd)
	t.reassocLeft = make([]int, nd)
	t.pendingSince = make([]int, nd)
	if t.rho > 0 {
		t.faders = make([]*radio.CorrelatedFader, nd)
		t.adv.fade = make([]complex128, nd)
	}
	if cfg.CFODriftHz > 0 {
		t.cfos = make([]*radio.CFOWalk, nd)
		t.adv.cfoHz = make([]float64, nd)
	}
	if cfg.MobilityStepM > 0 {
		t.mobSt = make([]dsp.Stream, nd)
	}
	if cfg.SleepProb > 0 {
		t.chrnSt = make([]dsp.Stream, nd)
	}

	// AP-side warm start: adopt the association-time assignment so the
	// dynamic machinery continues from the slots already on the air.
	t.ap = mac.NewAPWith(net.book, mac.NewDataOnlyAllocator(net.book))
	for i := 0; i < nd; i++ {
		dev := &net.dep.Devices[i]
		best := dev.BestAP()
		bestDown := dev.APLinks[0].DownlinkRSSIdBm
		for _, l := range dev.APLinks[1:] {
			if l.DownlinkRSSIdBm > bestDown {
				bestDown = l.DownlinkRSSIdBm
			}
		}
		t.pcs[i] = mac.NewPowerController()
		gain := t.pcs[i].AssociateGainDB(bestDown)
		if gain != net.gains[i] {
			return nil, fmt.Errorf("sim: device %d association gain %v diverges from network's %v", i, gain, net.gains[i])
		}
		t.ids[i] = uint8(i)
		t.known[i] = true
		t.pendingSince[i] = -1
		eff := dev.APLinks[best].UplinkSNRdB + gain
		if err := t.ap.AdoptAssignment(t.ids[i], net.slots[i], eff); err != nil {
			return nil, fmt.Errorf("sim: adopting device %d: %w", i, err)
		}
		if t.faders != nil {
			f := adversityStream(cfg.Seed, axisFade, uint64(i))
			t.faders[i] = radio.NewCorrelatedFader(cfg.KFactorDB, t.rho, f)
		}
		if t.cfos != nil {
			w := adversityStream(cfg.Seed, axisCFO, uint64(i))
			t.cfos[i] = radio.NewCFOWalk(cfg.CFODriftHz, cfg.CFOBoundHz, w)
		}
		if t.mobSt != nil {
			t.mobSt[i] = adversityStream(cfg.Seed, axisMobility, uint64(i))
		}
		if t.chrnSt != nil {
			t.chrnSt[i] = adversityStream(cfg.Seed, axisChurn, uint64(i))
		}
	}

	t.adv.active = make([]bool, nd)
	t.adv.apAlive = make([]bool, net.nAPs)
	t.adv.extra = make([]air.MultiTransmission, 0, maxBurstsPerRound)
	t.burst = &air.Burst{}
	t.burstSNRs = make([]float64, net.nAPs)
	t.burstTx = t.burst.Tx(t.burstSNRs)
	t.burstBuf = make([]complex128, 2*net.cfg.Params.N())
	t.burstMod = chirp.NewModulator(net.cfg.Params)

	r := cfg.Rounds
	if r < 0 {
		r = 0
	}
	t.stats.PERPerRound = make([]float64, 0, r)
	t.stats.FramesOKPerRound = make([]int, 0, r)
	t.stats.ActivePerRound = make([]int, 0, r)
	return t, nil
}

// Stats exposes the accumulated trajectory statistics.
func (t *Trajectory) Stats() *TrajectoryStats { return &t.stats }

// fadeDB returns device i's current evolved fade in dB (0 when evolved
// fading is off).
func (t *Trajectory) fadeDB(i int) float64 {
	if t.faders == nil {
		return 0
	}
	h := t.faders[i].Gain()
	p := real(h)*real(h) + imag(h)*imag(h)
	if p <= 0 {
		return -300
	}
	return radio.LinearToDB(p)
}

// downlinkRSSI is the device's reciprocity proxy: the strongest AP
// query at its current position, through its current fade. (AP dropout
// is a receive-path fault; queries keep flowing, so the proxy ignores
// the per-round liveness mask.)
func (t *Trajectory) downlinkRSSI(i int) float64 {
	dev := &t.net.dep.Devices[i]
	best := dev.APLinks[0].DownlinkRSSIdBm
	for _, l := range dev.APLinks[1:] {
		if l.DownlinkRSSIdBm > best {
			best = l.DownlinkRSSIdBm
		}
	}
	return best + t.fadeDB(i)
}

// markPending opens device i's recovery window at round r unless one
// is already open (an outage has one event and one recovery).
func (t *Trajectory) markPending(i, r int) {
	if t.pendingSince[i] < 0 {
		t.pendingSince[i] = r
	}
}

// startReassoc takes device i off the air for the association
// handshake after the AP dropped (or never had) its record.
func (t *Trajectory) startReassoc(i, r int) {
	t.reassocLeft[i] = t.cfg.ReassocRounds
	t.markPending(i, r)
}

// reassociate completes device i's handshake: the association-time
// power rule runs on today's (faded) downlink, the AP assigns a fresh
// network ID and slot — possibly reshuffling the whole fleet — and the
// new slot map is synced back into the network's encoders.
func (t *Trajectory) reassociate(i int) bool {
	rssi := t.downlinkRSSI(i)
	t.pcs[i].Reset()
	gain := t.pcs[i].AssociateGainDB(rssi)
	dev := &t.net.dep.Devices[i]
	best := dev.BestAP()
	eff := dev.APLinks[best].UplinkSNRdB + gain + t.fadeDB(i)
	asg, err := t.ap.OnAssociationRequest(eff)
	if err != nil {
		// Another association in flight: stay silent one more round.
		t.reassocLeft[i] = 1
		return false
	}
	t.ap.OnAssociationAck(asg.NetworkID)
	t.net.gains[i] = gain
	t.ids[i] = asg.NetworkID
	t.known[i] = true
	t.ev.Reassociations++
	t.syncSlots()
	return true
}

// syncSlots folds the AP's current slot map (which a re-association
// may have reshuffled wholesale) back into the network's per-device
// slots, decode candidates and encoders.
func (t *Trajectory) syncSlots() {
	for j := 0; j < t.nDevices; j++ {
		if !t.known[j] {
			continue
		}
		if rec, ok := t.ap.Record(t.ids[j]); ok && rec.Slot != t.net.slots[j] {
			t.net.setSlot(j, rec.Slot)
		}
	}
}

// Step advances the world one round, runs it, and folds the outcome
// into the trajectory statistics. All adversity evolution is serial
// (device order, then the round), so a trajectory is bit-identical at
// any GOMAXPROCS. An event-free step allocates nothing once Stats
// arenas are warm.
func (t *Trajectory) Step() (MultiRoundStats, error) { return t.StepFrames(nil) }

// StepFrames is Step with the caller's payloads: device i sends
// payloads[i] instead of its drawn payload, and stays silent when
// payloads[i] is nil. Every non-nil entry must be the network's
// PayloadBytes long. A nil slice is Step. The draws are those of Step,
// so caller bytes never move another device's randomness.
func (t *Trajectory) StepFrames(payloads [][]byte) (MultiRoundStats, error) {
	n := t.net
	r := t.round
	nd := t.nDevices
	cfg := &t.cfg
	if payloads != nil {
		if len(payloads) != nd {
			return MultiRoundStats{}, fmt.Errorf("sim: %d payloads for %d devices", len(payloads), nd)
		}
		for i, p := range payloads {
			if p != nil && len(p) != n.cfg.PayloadBytes {
				return MultiRoundStats{}, fmt.Errorf("sim: device %d payload is %d bytes, want %d", i, len(p), n.cfg.PayloadBytes)
			}
		}
	}

	t.ev = TrajectoryEvents{}

	// Infrastructure faults for the round.
	nAlive := planDropout(cfg.Seed, uint64(r), cfg.APDropProb, t.adv.apAlive)
	t.stats.APDownRounds += n.nAPs - nAlive

	t.adv.extra = t.adv.extra[:0]
	bp := planBurst(cfg.Seed, uint64(r), cfg.BurstProb, t.roundSamples,
		n.cfg.Params.N(), cfg.BurstMaxSymbols, n.dep.Plan.Width, n.dep.Plan.Height)
	if bp.present {
		t.stats.BurstRounds++
		t.synthesizeBurst(r, bp)
		t.adv.extra = append(t.adv.extra, t.burstTx)
	}

	// World evolution, in device order. The channel keeps moving for
	// sleeping devices too — that is what makes their power-control
	// state stale when they wake.
	for i := 0; i < nd; i++ {
		if t.chrnSt != nil {
			was := t.asleep[i]
			t.asleep[i] = churnStep(&t.chrnSt[i], was, cfg.SleepProb, cfg.WakeProb)
			switch {
			case t.asleep[i] && !was:
				t.stats.SleepEvents++
			case !t.asleep[i] && was:
				t.stats.WakeEvents++
				t.sleepRounds[i] = 0
				t.markPending(i, r)
			}
		}
		if t.faders != nil {
			t.adv.fade[i] = t.faders[i].Step()
		}
		if t.cfos != nil {
			t.adv.cfoHz[i] = t.cfos[i].Step()
		}
		if t.mobSt != nil {
			st := &t.mobSt[i]
			dx := cfg.MobilityStepM * st.NormFloat64()
			dy := cfg.MobilityStepM * st.NormFloat64()
			n.dep.MoveDevice(i, dx, dy)
			dev := &n.dep.Devices[i]
			n.bestDist[i] = dev.APLinks[dev.BestAP()].Dist
		}
	}

	// Protocol step: participation, loss declarations, re-association.
	for i := 0; i < nd; i++ {
		participate := false
		switch {
		case t.asleep[i]:
			t.sleepRounds[i]++
			if t.known[i] && t.sleepRounds[i] > cfg.LostAfterRounds {
				t.ap.OnDeviceLost(t.ids[i])
				t.known[i] = false
				t.ev.DevicesLostByAP++
			}
		case t.reassocLeft[i] > 0:
			t.reassocLeft[i]--
			if t.reassocLeft[i] == 0 && t.reassociate(i) {
				// Handshake done: back on the air this round.
				_, participate = t.pcs[i].Adjust(t.downlinkRSSI(i))
			}
		case !t.known[i]:
			// Woke up after the AP timed it out: full re-association.
			t.startReassoc(i, r)
		default:
			var gain float64
			gain, participate = t.pcs[i].Adjust(t.downlinkRSSI(i))
			if participate {
				n.gains[i] = gain
			} else {
				t.ev.SkippedRounds++
				t.markPending(i, r)
				if t.pcs[i].NeedsReassociation() {
					t.ap.OnDeviceLost(t.ids[i])
					t.known[i] = false
					t.ev.DevicesLostByAP++
					t.startReassoc(i, r)
				}
			}
		}
		t.adv.active[i] = deviceActive(t.asleep[i], t.reassocLeft[i], participate) && t.known[i] &&
			(payloads == nil || payloads[i] != nil)
	}

	// Refresh the per-(device, AP) effective SNRs from current geometry
	// and gains. With every process off these writes are identities, so
	// the oracle round is untouched.
	for i := 0; i < nd; i++ {
		snrs := n.rc.snrArena[i*n.nAPs : (i+1)*n.nAPs]
		for a := 0; a < n.nAPs; a++ {
			snrs[a] = n.dep.Devices[i].APLinks[a].UplinkSNRdB + n.gains[i]
		}
	}

	t.adv.payloads = payloads
	stats, err := n.runRound(nd, &t.adv)
	t.adv.payloads = nil
	if err != nil {
		return stats, err
	}

	// Outcomes: close recovery windows on CRC-valid frames, attribute
	// losses, feed measured strengths back to the AP's allocator.
	for i := 0; i < nd; i++ {
		if !t.adv.active[i] {
			continue
		}
		sel := n.rc.sel[i]
		if sel >= 0 && n.rc.res[sel].Devices[i].CRCOK {
			if t.pendingSince[i] >= 0 {
				t.ev.recovered(r - t.pendingSince[i])
				t.pendingSince[i] = -1
			}
			t.ap.UpdateSNR(t.ids[i], n.rc.snrArena[i*n.nAPs+sel]+t.fadeDB(i))
			continue
		}
		switch {
		case nAlive == 0:
			t.ev.LostToDropout++
		case bp.present:
			t.ev.LostToInterference++
		case t.fadeDB(i) < -cfg.DeepFadeDB:
			t.ev.LostToFading++
		default:
			t.ev.LostToOther++
		}
	}

	stats.Events = t.ev
	t.stats.TrajectoryEvents.add(&t.ev)
	t.stats.Rounds++
	if !t.cfg.NoSeries {
		t.stats.PERPerRound = append(t.stats.PERPerRound, stats.Combined.PER())
		t.stats.FramesOKPerRound = append(t.stats.FramesOKPerRound, stats.Combined.FramesOK)
		t.stats.ActivePerRound = append(t.stats.ActivePerRound, stats.Combined.Devices)
	}
	if stats.Combined.Devices > 0 && stats.Combined.FramesOK == 0 {
		t.stats.AllLostRounds++
	}
	t.round++
	return stats, nil
}

// synthesizeBurst retargets the trajectory's burst arena to this
// round's plan: template waveform (chirp train or wideband noise),
// window, and per-AP received SNRs from the interferer's position
// through the deployment's path-loss model, capped by the front end's
// AGC like every other arrival.
func (t *Trajectory) synthesizeBurst(r int, bp burstPlan) {
	n := t.net
	if bp.chirpKind {
		t.burst.Template = air.ChirpBurstTemplate(t.burstBuf, t.burstMod, bp.shift)
	} else {
		st := adversityStream(t.cfg.Seed, axisBurstWave, uint64(r))
		t.burst.Template = t.burstBuf[:cap(t.burstBuf)]
		air.NoiseBurstTemplate(t.burst.Template, &st)
	}
	t.burst.StartSample = bp.start
	t.burst.DurSamples = bp.dur
	bw := n.dep.BWHz
	if bw == 0 {
		bw = 500e3
	}
	noise := radio.ThermalNoiseDBm(bw, radio.DefaultNoiseFigureDB)
	for a, ap := range n.dep.APs {
		dist := bp.pos.Distance(ap)
		walls := n.dep.Plan.WallsBetween(bp.pos, ap)
		snr := t.cfg.BurstEIRPdBm + n.dep.Budget.APAntennaGainDBi -
			n.dep.Budget.Model.LossDB(dist, walls) - noise
		if agc := n.dep.Budget.AGCCapDB; agc > 0 && snr > agc {
			snr = agc
		}
		t.burstSNRs[a] = snr
	}
}
