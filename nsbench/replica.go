package main

// The traced replica: the same round sim.Network / sim.MultiAPNetwork
// run, assembled here from the layers' public entry points so that spans
// can be recorded at every layer boundary without touching the program.
// It consumes the simulator's random draws in the simulator's order, so
// its RoundStats must equal the real network's round for round; the
// fidelity check holds it to that.

import (
	"fmt"

	"netscatter/internal/air"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/hw"
	"netscatter/internal/mac"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// Span names, one per layer boundary the replica crosses.
const (
	spanRound     = "sim.round"
	spanPrep      = "sim.prep"
	spanReceive   = "air.receive"
	spanTemplate  = "synth.template"
	spanAccum     = "air.accumulate"
	spanDecode    = "core.decode"
	spanCombine   = "core.combine"
	spanAggregate = "sim.aggregate"
)

// decoderConfig is the simulator's receiver configuration for a code
// book: the guard window clamped to the ~2-bin residual-offset regime
// and the noise floor the AP calibrates (N per padded bin).
func decoderConfig(cfg sim.Config, book *core.CodeBook) core.DecoderConfig {
	dcfg := core.DefaultDecoderConfig(book.Skip())
	if dcfg.GuardBins > 2 {
		dcfg.GuardBins = 2
	}
	dcfg.NoiseFloor = float64(cfg.Params.N())
	return dcfg
}

// tally folds one device's decode into stats the way the simulator
// scores it: detection, payload bit errors, CRC-valid matching frames.
func tally(st *sim.RoundStats, d *core.DeviceDecode, wantBits, wantPayload []byte, payloadBits int) {
	if !d.Detected {
		return
	}
	st.Detected++
	st.TotalBits += payloadBits
	for j := range wantBits {
		if d.Bits[j] != wantBits[j] {
			st.BitErrors++
		}
	}
	if d.CRCOK && string(d.Payload) == string(wantPayload) {
		st.FramesOK++
	}
}

// frameState is the per-device frame content both replicas refill each
// round: payload bytes and their framed bit sections.
type frameState struct {
	payloads [][]byte
	bits     [][]byte
}

func newFrameState(n, payloadBytes int) frameState {
	payloadBits := payloadBytes*8 + core.CRCBits
	fs := frameState{payloads: make([][]byte, n), bits: make([][]byte, n)}
	for i := range fs.payloads {
		fs.payloads[i] = make([]byte, payloadBytes)
		fs.bits[i] = make([]byte, payloadBits)
	}
	return fs
}

// tracedCalls wraps an encoder's tiled-channel closures so each call is
// a span under the replica's current receive span (when tracing).
func tracedCalls(tr **tracer, parent *int32, enc *core.Encoder, bits []byte) (
	func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128,
	func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64),
) {
	tmplFn := func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
		t := *tr
		if t == nil {
			return enc.FrameBitsWaveformMixedTemplates(tmpl, bits, frac, freqHz, gain)
		}
		id := t.begin(spanTemplate, *parent)
		out := enc.FrameBitsWaveformMixedTemplates(tmpl, bits, frac, freqHz, gain)
		t.end(id)
		return out
	}
	rangeFn := func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
		t := *tr
		if t == nil {
			enc.FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, bits, frac, freqHz)
			return
		}
		id := t.begin(spanAccum, *parent)
		enc.FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, bits, frac, freqHz)
		t.end(id)
	}
	return tmplFn, rangeFn
}

// spanOf opens a span when tracing and returns -1 otherwise; endSpan
// closes it.
func spanOf(t *tracer, name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.begin(name, parent)
}

func endSpan(t *tracer, id int32) {
	if t != nil {
		t.end(id)
	}
}

// singleReplica replays sim.Network: one AP, air.Channel, one
// ParallelDecoder.
type singleReplica struct {
	cfg         sim.Config
	devices     int
	payloadBits int
	rng         *dsp.Rand
	ch          *air.Channel
	dec         *core.ParallelDecoder
	oscs        []radio.Oscillator
	encs        []*core.Encoder
	shifts      []int
	snrs        []float64
	dists       []float64
	txs         []air.Transmission
	fs          frameState
	sig         []complex128
	sel         []int
	res         []*core.FrameDecode

	tr     *tracer // nil when untraced
	rxSpan int32
	ffts   int
}

// newSingleReplica mirrors sim.NewNetwork(cfg, dep, devices, seed) for a
// network built with power-aware allocation and no fading, taking slots
// and gains from the built network's getters.
func newSingleReplica(cfg sim.Config, dep *deploy.Deployment, net *sim.Network, devices int, seed int64) (*singleReplica, error) {
	if cfg.Fading || !cfg.PowerAwareAllocation {
		return nil, fmt.Errorf("replica: fading or arrival-order allocation not replicated")
	}
	book := net.Book()
	r := &singleReplica{
		cfg:         cfg,
		devices:     devices,
		payloadBits: cfg.PayloadBytes*8 + core.CRCBits,
		rng:         dsp.NewRand(seed),
		dec:         core.NewParallelDecoder(book, decoderConfig(cfg, book), 0),
		oscs:        make([]radio.Oscillator, devices),
		encs:        make([]*core.Encoder, devices),
		shifts:      make([]int, devices),
		snrs:        make([]float64, devices),
		dists:       make([]float64, devices),
		txs:         make([]air.Transmission, devices),
		fs:          newFrameState(devices, cfg.PayloadBytes),
		sel:         make([]int, devices),
		res:         make([]*core.FrameDecode, 1),
	}
	r.ch = air.NewChannel(cfg.Params, r.rng)
	for i := 0; i < devices; i++ {
		r.oscs[i] = radio.NewBackscatterOscillator(r.rng, 20, 50)
		r.shifts[i] = book.ShiftOfSlot(net.SlotOf(i))
		r.snrs[i] = dep.Devices[i].UplinkSNRdB + net.GainOf(i)
		r.dists[i] = dep.Devices[i].Pos.Distance(dep.Plan.AP)
		r.encs[i] = core.NewEncoder(cfg.Params, r.shifts[i])
		r.txs[i].MixedTmpl, r.txs[i].MixedAddRange = tracedCalls(&r.tr, &r.rxSpan, r.encs[i], r.fs.bits[i])
	}
	r.sig = make([]complex128, r.ch.FrameLength(core.PreambleSymbols+r.payloadBits, 2))
	return r, nil
}

func (r *singleReplica) setTracer(t *tracer) { r.tr = t }

func (r *singleReplica) round() (roundResult, error) {
	t := r.tr
	root := spanOf(t, spanRound, -1)

	id := spanOf(t, spanPrep, root)
	for i := 0; i < r.devices; i++ {
		r.rng.FillBytes(r.fs.payloads[i])
		core.FrameBitsInto(r.fs.bits[i], r.fs.payloads[i])
		r.txs[i].SNRdB = r.snrs[i]
		r.txs[i].DelaySec = r.cfg.DelayModel.Draw(r.rng) + hw.PropagationDelaySec(r.dists[i])
		r.txs[i].FreqOffsetHz = r.oscs[i].PacketOffsetHz(r.rng)
	}
	endSpan(t, id)

	r.rxSpan = spanOf(t, spanReceive, root)
	sig := r.ch.ReceiveInto(r.sig, r.txs)
	endSpan(t, r.rxSpan)

	id = spanOf(t, spanDecode, root)
	res, err := r.dec.DecodeFrame(sig, 0, r.shifts, r.payloadBits)
	endSpan(t, id)
	if err != nil {
		return roundResult{}, err
	}
	r.ffts = res.FFTs

	id = spanOf(t, spanAggregate, root)
	p := r.cfg.Params
	st := sim.RoundStats{
		Devices:       r.devices,
		ScheduledBits: r.devices * r.payloadBits,
		RoundSecs:     r.cfg.Timing.NetScatterRoundSeconds(p, r.cfg.Query, r.cfg.PayloadBytes),
		PayloadSec:    float64(r.payloadBits) * p.SymbolPeriod(),
	}
	r.res[0] = res
	sim.AggregateDecodes(r.sel, r.res)
	for i, a := range r.sel {
		if a >= 0 {
			tally(&st, &res.Devices[i], r.fs.bits[i], r.fs.payloads[i], r.payloadBits)
		}
	}
	endSpan(t, id)
	endSpan(t, root)
	return roundResult{final: st, combined: st}, nil
}

func (r *singleReplica) lastFFTs() int { return r.ffts }

// multiReplica replays sim.MultiAPNetwork with soft combining on:
// air.MultiChannel fan-out, one emitting ParallelDecoder per AP, the
// dsp.AddFloat64 arena sum and a DecodeFrameSpectra combined decode.
type multiReplica struct {
	cfg         sim.Config
	devices     int
	aps         int
	payloadBits int
	rng         *dsp.Rand
	mch         *air.MultiChannel
	decs        []*core.ParallelDecoder
	combDec     *core.Decoder
	oscs        []radio.Oscillator
	encs        []*core.Encoder
	shifts      []int
	bestDist    []float64
	txs         []air.MultiTransmission
	fs          frameState
	sigs        [][]complex128
	emits       [][]float64
	comb        []float64
	res         []*core.FrameDecode
	resPlus     []*core.FrameDecode
	sel         []int
	softSel     []int

	tr     *tracer
	rxSpan int32
	ffts   int
}

// newMultiReplica mirrors sim.NewMultiAPNetwork(cfg, dep, aps, devices,
// seed) + SetSoftCombining(true) on a deployment whose APs are already
// placed: association power from mac.PowerController on the strongest
// downlink, slots from mac's data-only allocator on best-AP SNRs.
func newMultiReplica(cfg sim.Config, dep *deploy.Deployment, book *core.CodeBook, aps, devices int, seed int64) (*multiReplica, error) {
	if cfg.Fading || !cfg.PowerAwareAllocation || cfg.DisablePowerControl {
		return nil, fmt.Errorf("replica: fading, arrival-order allocation or disabled power control not replicated")
	}
	if len(dep.APs) != aps {
		return nil, fmt.Errorf("replica: deployment has %d APs, want %d", len(dep.APs), aps)
	}
	dcfg := decoderConfig(cfg, book)
	r := &multiReplica{
		cfg:         cfg,
		devices:     devices,
		aps:         aps,
		payloadBits: cfg.PayloadBytes*8 + core.CRCBits,
		rng:         dsp.NewRand(seed),
		decs:        make([]*core.ParallelDecoder, aps),
		combDec:     core.NewDecoder(book, dcfg),
		oscs:        make([]radio.Oscillator, devices),
		encs:        make([]*core.Encoder, devices),
		shifts:      make([]int, devices),
		bestDist:    make([]float64, devices),
		txs:         make([]air.MultiTransmission, devices),
		fs:          newFrameState(devices, cfg.PayloadBytes),
		sigs:        make([][]complex128, aps),
		emits:       make([][]float64, aps),
		res:         make([]*core.FrameDecode, aps),
		resPlus:     make([]*core.FrameDecode, 0, aps+1),
		sel:         make([]int, devices),
		softSel:     make([]int, devices),
	}
	for a := range r.decs {
		r.decs[a] = core.NewParallelDecoder(book, dcfg, 0)
	}
	r.mch = air.NewMultiChannel(cfg.Params, aps, r.rng)

	gains := make([]float64, devices)
	effSNR := make([]float64, devices)
	ids := make([]uint8, devices)
	for i := 0; i < devices; i++ {
		dev := &dep.Devices[i]
		best := dev.BestAP()
		r.bestDist[i] = dev.APLinks[best].Dist
		bestDown := dev.APLinks[0].DownlinkRSSIdBm
		for _, l := range dev.APLinks[1:] {
			bestDown = max(bestDown, l.DownlinkRSSIdBm)
		}
		gains[i] = mac.NewPowerController().AssociateGainDB(bestDown)
		effSNR[i] = dev.APLinks[best].UplinkSNRdB + gains[i]
		r.oscs[i] = radio.NewBackscatterOscillator(r.rng, 20, 50)
		ids[i] = uint8(i)
	}
	assign := mac.NewDataOnlyAllocator(book).AssignAll(ids, effSNR)
	for i := 0; i < devices; i++ {
		r.shifts[i] = book.ShiftOfSlot(assign[uint8(i)])
		r.encs[i] = core.NewEncoder(cfg.Params, r.shifts[i])
		snrs := make([]float64, aps)
		for a := range snrs {
			snrs[a] = dep.Devices[i].APLinks[a].UplinkSNRdB + gains[i]
		}
		r.txs[i].SNRdB = snrs
		r.txs[i].MixedTmpl, r.txs[i].MixedAddRange = tracedCalls(&r.tr, &r.rxSpan, r.encs[i], r.fs.bits[i])
	}
	length := r.mch.FrameLength(core.PreambleSymbols+r.payloadBits, 2)
	emitLen := r.combDec.EmitLen(r.payloadBits)
	for a := 0; a < aps; a++ {
		r.sigs[a] = make([]complex128, length)
		r.emits[a] = make([]float64, emitLen)
	}
	r.comb = make([]float64, emitLen)
	return r, nil
}

func (r *multiReplica) setTracer(t *tracer) { r.tr = t }

func (r *multiReplica) round() (roundResult, error) {
	t := r.tr
	root := spanOf(t, spanRound, -1)

	id := spanOf(t, spanPrep, root)
	for i := 0; i < r.devices; i++ {
		r.rng.FillBytes(r.fs.payloads[i])
		core.FrameBitsInto(r.fs.bits[i], r.fs.payloads[i])
		r.txs[i].DelaySec = r.cfg.DelayModel.Draw(r.rng) + hw.PropagationDelaySec(r.bestDist[i])
		r.txs[i].FreqOffsetHz = r.oscs[i].PacketOffsetHz(r.rng)
	}
	endSpan(t, id)

	r.rxSpan = spanOf(t, spanReceive, root)
	r.mch.ReceiveInto(r.sigs, r.txs)
	endSpan(t, r.rxSpan)

	r.ffts = 0
	for a := 0; a < r.aps; a++ {
		id = spanOf(t, spanDecode, root)
		res, err := r.decs[a].DecodeFrameEmit(r.sigs[a], 0, r.shifts, r.payloadBits, r.emits[a])
		endSpan(t, id)
		if err != nil {
			return roundResult{}, err
		}
		r.res[a] = res
		r.ffts += res.FFTs
	}

	id = spanOf(t, spanCombine, root)
	copy(r.comb, r.emits[0])
	for a := 1; a < r.aps; a++ {
		dsp.AddFloat64(r.comb, r.emits[a])
	}
	softRes, err := r.combDec.DecodeFrameSpectra(r.comb, r.aps, r.shifts, r.payloadBits)
	endSpan(t, id)
	if err != nil {
		return roundResult{}, err
	}
	r.ffts += softRes.FFTs

	id = spanOf(t, spanAggregate, root)
	p := r.cfg.Params
	base := sim.RoundStats{
		Devices:       r.devices,
		ScheduledBits: r.devices * r.payloadBits,
		RoundSecs:     r.cfg.Timing.NetScatterRoundSeconds(p, r.cfg.Query, r.cfg.PayloadBytes),
		PayloadSec:    float64(r.payloadBits) * p.SymbolPeriod(),
	}
	out := roundResult{nAP: r.aps}
	for a := 0; a < r.aps; a++ {
		out.perAP[a] = base
		for i := range r.res[a].Devices {
			tally(&out.perAP[a], &r.res[a].Devices[i], r.fs.bits[i], r.fs.payloads[i], r.payloadBits)
		}
	}
	sim.AggregateDecodes(r.sel, r.res)
	out.combined = base
	for i, a := range r.sel {
		if a >= 0 {
			tally(&out.combined, &r.res[a].Devices[i], r.fs.bits[i], r.fs.payloads[i], r.payloadBits)
		}
	}
	r.resPlus = append(append(r.resPlus[:0], r.res...), softRes)
	sim.AggregateDecodes(r.softSel, r.resPlus)
	out.final = base
	for i, a := range r.softSel {
		if a >= 0 {
			tally(&out.final, &r.resPlus[a].Devices[i], r.fs.bits[i], r.fs.payloads[i], r.payloadBits)
		}
	}
	endSpan(t, id)
	endSpan(t, root)
	return out, nil
}

func (r *multiReplica) lastFFTs() int { return r.ffts }
