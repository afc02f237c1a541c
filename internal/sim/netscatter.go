package sim

import (
	"fmt"
	"sort"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/hw"
	"netscatter/internal/mac"
	"netscatter/internal/radio"
)

// Config parameterizes the sample-level NetScatter network simulation.
type Config struct {
	// Params is the chirp configuration (the paper deploys 500 kHz,
	// SF 9).
	Params chirp.Params
	// Skip is the cyclic-shift spacing (2 in the deployment).
	Skip int
	// PayloadBytes per device per round (5 in §4.4).
	PayloadBytes int
	// Decoder tunes the receiver; zero value means
	// core.DefaultDecoderConfig(Skip).
	Decoder *core.DecoderConfig
	// Timing is the on-air accounting.
	Timing Timing
	// Query selects Config1/Config2 overheads.
	Query QueryConfig
	// DisablePowerControl turns off the device-side power adaptation
	// (for the ablation bench).
	DisablePowerControl bool
	// PowerAwareAllocation selects the §3.2.3 allocation; when false
	// slots are assigned in arrival order (ablation).
	PowerAwareAllocation bool
	// Fading applies a per-round Ricean fading draw per device.
	Fading bool
	// DelayModel draws per-packet hardware delays.
	DelayModel hw.DelayModel
}

// DefaultConfig returns the deployment configuration of §4.4.
func DefaultConfig() Config {
	return Config{
		Params:               chirp.Default500k9,
		Skip:                 2,
		PayloadBytes:         5,
		Timing:               DefaultTiming(),
		Query:                Config1,
		PowerAwareAllocation: true,
		DelayModel:           hw.DefaultDelayModel,
	}
}

// RoundStats aggregates one concurrent round.
type RoundStats struct {
	Devices       int // devices scheduled to transmit
	Detected      int // devices whose preamble was found
	FramesOK      int // devices with matching CRC and payload
	BitErrors     int // payload bit errors across detected devices
	TotalBits     int // payload bits transmitted by detected devices
	ScheduledBits int // payload bits transmitted by all devices
	RoundSecs     float64
	PayloadSec    float64
}

// PER returns the packet error rate: the fraction of scheduled devices
// whose frame did not arrive CRC-valid.
func (r RoundStats) PER() float64 {
	if r.Devices == 0 {
		return 0
	}
	return 1 - float64(r.FramesOK)/float64(r.Devices)
}

// BER returns the payload bit error rate over detected devices.
func (r RoundStats) BER() float64 {
	if r.TotalBits == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.TotalBits)
}

// GoodBits returns the correctly received payload bits across all
// scheduled devices (bits of undetected devices count as lost).
func (r RoundStats) GoodBits() int {
	return r.TotalBits - r.BitErrors
}

// GoodFraction is GoodBits over everything scheduled.
func (r RoundStats) GoodFraction() float64 {
	if r.ScheduledBits == 0 {
		return 0
	}
	return float64(r.GoodBits()) / float64(r.ScheduledBits)
}

// Network is a deployed NetScatter network ready to run rounds.
type Network struct {
	cfg     Config
	dep     *deploy.Deployment
	book    *core.CodeBook
	decoder *core.ParallelDecoder
	rng     *dsp.Rand
	ch      *air.Channel

	// per-device state, parallel to dep.Devices
	slots  []int
	gains  []float64
	oscs   []radio.Oscillator
	faders []*radio.FadingProcess
	encs   []*core.Encoder

	rc roundCtx
}

// roundCtx is the network's reusable round arena: every buffer frame
// setup needs — transmissions, payloads, frame bit sections, the
// received stream — is carved out once at association time and refilled
// in place each round, extending the decoder's zero-allocation property
// up through the transmit path. The template-pair closures
// (MixedTmpl + MixedAddRange) are built once per device and read the
// device's bit section on every receive; each round only rewrites the
// scalar channel fields (SNR, delay, frequency offset, fade) and the
// arena contents.
type roundCtx struct {
	txs      []air.Transmission
	shifts   []int
	payloads [][]byte // per-device views into payloadArena
	bits     [][]byte // per-device frame bit sections into bitsArena

	payloadArena []byte
	bitsArena    []byte
	sig          []complex128
}

// NewNetwork associates the first maxDevices of a deployment: slots are
// assigned with the power-aware allocator (strongest devices nearest
// the anchor bin), and each device runs its association-time power rule.
func NewNetwork(cfg Config, dep *deploy.Deployment, maxDevices int, seed int64) (*Network, error) {
	if cfg.Skip < 1 {
		return nil, fmt.Errorf("sim: invalid SKIP %d", cfg.Skip)
	}
	if maxDevices > len(dep.Devices) {
		return nil, fmt.Errorf("sim: %d devices requested, deployment has %d", maxDevices, len(dep.Devices))
	}
	book, err := buildCodeBook(cfg, maxDevices)
	if err != nil {
		return nil, err
	}
	dcfg := resolveDecoderConfig(cfg, book.Skip())
	n := &Network{
		cfg:     cfg,
		dep:     dep,
		book:    book,
		decoder: core.NewParallelDecoder(book, dcfg, 0),
		rng:     dsp.NewRand(seed),
		slots:   make([]int, maxDevices),
		gains:   make([]float64, maxDevices),
		oscs:    make([]radio.Oscillator, maxDevices),
		faders:  make([]*radio.FadingProcess, maxDevices),
		encs:    make([]*core.Encoder, maxDevices),
	}
	n.ch = air.NewChannel(cfg.Params, n.rng)

	// Association-time power rule, then allocation on the resulting
	// received strengths.
	pcs := make([]*mac.PowerController, maxDevices)
	effSNR := make([]float64, maxDevices)
	for i := 0; i < maxDevices; i++ {
		pcs[i] = mac.NewPowerController()
		gain := 0.0
		if !cfg.DisablePowerControl {
			gain = pcs[i].AssociateGainDB(dep.Devices[i].DownlinkRSSIdBm)
		}
		n.gains[i] = gain
		effSNR[i] = dep.Devices[i].UplinkSNRdB + gain
		n.oscs[i] = radio.NewBackscatterOscillator(n.rng, 20, 50)
		if cfg.Fading {
			n.faders[i] = radio.NewFadingProcess(10, 0.97, n.rng.Fork())
		}
	}

	if cfg.PowerAwareAllocation {
		alloc := mac.NewDataOnlyAllocator(book)
		ids := make([]uint8, maxDevices)
		for i := range ids {
			ids[i] = uint8(i)
		}
		assign := alloc.AssignAll(ids, effSNR)
		for i := range ids {
			n.slots[i] = assign[uint8(i)]
		}
	} else {
		// Arrival-order (random) assignment for the ablation.
		perm := n.rng.Perm(book.Slots())
		for i := 0; i < maxDevices; i++ {
			n.slots[i] = perm[i]
		}
	}
	n.initRoundCtx(maxDevices)
	return n, nil
}

// buildCodeBook selects the effective cyclic-shift spacing for a
// network of maxDevices and builds its code book. Devices are spread
// over the whole spectrum when slots outnumber them: with 128 of 256
// devices the effective spacing is SKIP=4, matching the paper's
// observation that under 128 devices "the devices are separated by
// more than 2 cyclic shifts" (§4.4).
func buildCodeBook(cfg Config, maxDevices int) (*core.CodeBook, error) {
	skip := cfg.Skip
	if maxDevices > 0 {
		if s := cfg.Params.N() / maxDevices; s > skip {
			skip = s
		}
	}
	if max := cfg.Params.N() / 2; skip > max {
		skip = max
	}
	book, err := core.NewCodeBook(cfg.Params, skip)
	if err != nil {
		return nil, err
	}
	if maxDevices > book.Slots() {
		return nil, fmt.Errorf("sim: %d devices exceed %d slots", maxDevices, book.Slots())
	}
	return book, nil
}

// resolveDecoderConfig applies the simulator's decoder defaults: a
// guard window matched to the residual-offset regime and the
// normalized noise floor the AP would calibrate on quiet intervals
// (exactly N per padded bin — unit noise over an N-sample window).
func resolveDecoderConfig(cfg Config, skip int) core.DecoderConfig {
	dcfg := core.DefaultDecoderConfig(skip)
	if dcfg.GuardBins > 2 {
		// Residual offsets never exceed ~2 bins (Fig. 14b); a wider
		// search window would only admit neighbours.
		dcfg.GuardBins = 2
	}
	if cfg.Decoder != nil {
		dcfg = *cfg.Decoder
	}
	if dcfg.NoiseFloor == 0 {
		dcfg.NoiseFloor = float64(cfg.Params.N())
	}
	return dcfg
}

// tallyDevice folds one device's decode outcome into stats: detection,
// payload bit errors against the transmitted bits, and frame validity
// against the transmitted payload.
func tallyDevice(stats *RoundStats, dev *core.DeviceDecode, wantBits []byte, wantPayload []byte, payloadBits int) {
	if !dev.Detected {
		return
	}
	stats.Detected++
	stats.TotalBits += payloadBits
	for j := range wantBits {
		if dev.Bits[j] != wantBits[j] {
			stats.BitErrors++
		}
	}
	if dev.CRCOK && equalBytes(dev.Payload, wantPayload) {
		stats.FramesOK++
	}
}

// initRoundCtx carves the reusable round arena and builds the
// per-device encoders and transmission closures once; RunRound only
// refills it. Slots are fixed after association, so shifts — and the
// synthesizer state behind each encoder — never change between rounds.
func (n *Network) initRoundCtx(maxDevices int) {
	payloadBytes := n.cfg.PayloadBytes
	payloadBits := payloadBytes*8 + core.CRCBits
	frameSymbols := core.PreambleSymbols + payloadBits

	rc := &n.rc
	rc.txs = make([]air.Transmission, maxDevices)
	rc.shifts = make([]int, maxDevices)
	rc.payloads = make([][]byte, maxDevices)
	rc.bits = make([][]byte, maxDevices)
	rc.payloadArena = make([]byte, maxDevices*payloadBytes)
	rc.bitsArena = make([]byte, maxDevices*payloadBits)
	rc.sig = make([]complex128, n.ch.FrameLength(frameSymbols, 2))
	for i := 0; i < maxDevices; i++ {
		rc.shifts[i] = n.book.ShiftOfSlot(n.slots[i])
		n.encs[i] = core.NewEncoder(n.cfg.Params, rc.shifts[i])
		rc.payloads[i] = rc.payloadArena[i*payloadBytes : (i+1)*payloadBytes]
		rc.bits[i] = rc.bitsArena[i*payloadBits : (i+1)*payloadBits]
		// The tiled channel path: the frame is never materialized —
		// template symbols are synthesized once per round into the
		// channel's arena, and every receive-buffer tile accumulates its
		// clip of the frame straight from them (bit-identical to
		// materialize + superpose, at any worker count).
		rc.txs[i].MixedTmpl = func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			return n.encs[i].FrameBitsWaveformMixedTemplates(tmpl, n.rc.bits[i], frac, freqHz, gain)
		}
		rc.txs[i].MixedAddRange = func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
			n.encs[i].FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, n.rc.bits[i], frac, freqHz)
		}
	}
}

// Book exposes the code book.
func (n *Network) Book() *core.CodeBook { return n.book }

// SlotOf returns the slot of device i.
func (n *Network) SlotOf(i int) int { return n.slots[i] }

// GainOf returns the power gain of device i.
func (n *Network) GainOf(i int) float64 { return n.gains[i] }

// EffectiveSNRs returns the post-power-control SNRs of the first k
// devices.
func (n *Network) EffectiveSNRs(k int) []float64 {
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = n.dep.Devices[i].UplinkSNRdB + n.gains[i]
	}
	return out
}

// RunRound executes one concurrent round with nDevices (the first
// nDevices of the network) and returns its statistics.
func (n *Network) RunRound(nDevices int) (RoundStats, error) {
	if nDevices > len(n.slots) {
		return RoundStats{}, fmt.Errorf("sim: round with %d devices, network has %d", nDevices, len(n.slots))
	}
	p := n.cfg.Params
	payloadBits := n.cfg.PayloadBytes*8 + core.CRCBits

	// Refill the round arena in place: same rng draw order as the
	// original per-round construction (payload bytes, fade, delay,
	// oscillator), so a seed produces the same round sequence.
	rc := &n.rc
	txs := rc.txs[:nDevices]
	for i := 0; i < nDevices; i++ {
		n.rng.FillBytes(rc.payloads[i])
		core.FrameBitsInto(rc.bits[i], rc.payloads[i])
		var fade complex128
		if n.faders[i] != nil {
			fade = n.faders[i].Step()
		}
		txs[i].SNRdB = n.dep.Devices[i].UplinkSNRdB + n.gains[i]
		txs[i].DelaySec = n.cfg.DelayModel.Draw(n.rng) +
			hw.PropagationDelaySec(n.dep.Devices[i].Pos.Distance(n.dep.Plan.AP))
		txs[i].FreqOffsetHz = n.oscs[i].PacketOffsetHz(n.rng)
		txs[i].FadeGain = fade
	}

	sig := n.ch.ReceiveInto(rc.sig, txs)
	res, err := n.decoder.DecodeFrame(sig, 0, rc.shifts[:nDevices], payloadBits)
	if err != nil {
		return RoundStats{}, err
	}

	stats := RoundStats{
		Devices:       nDevices,
		ScheduledBits: nDevices * payloadBits,
		RoundSecs:     n.cfg.Timing.NetScatterRoundSeconds(p, n.cfg.Query, n.cfg.PayloadBytes),
		PayloadSec:    float64(payloadBits) * p.SymbolPeriod(),
	}
	for i := range res.Devices {
		tallyDevice(&stats, &res.Devices[i], rc.bits[i], rc.payloads[i], payloadBits)
	}
	return stats, nil
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortDeploymentBySNR reorders a deployment's devices by descending
// uplink SNR; useful for experiments that pick "the strongest k".
func SortDeploymentBySNR(dep *deploy.Deployment) {
	sort.SliceStable(dep.Devices, func(i, j int) bool {
		return dep.Devices[i].UplinkSNRdB > dep.Devices[j].UplinkSNRdB
	})
}
