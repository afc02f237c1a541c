// Package netscatter is a from-scratch reproduction of "NetScatter:
// Enabling Large-Scale Backscatter Networks" (Hessar, Najafi, Gollakota;
// NSDI 2019): the first wireless protocol scaling to hundreds of
// concurrent backscatter transmissions via distributed chirp spread
// spectrum coding — each device ON-OFF keys its own cyclic shift of a
// shared chirp, and the access point decodes everyone with a single FFT
// per symbol.
//
// This package is the public facade. It wires together the internal
// substrates (chirp DSP, RF channel models, backscatter hardware
// models, the distributed-CSS codec, the MAC protocol and the office
// deployment generator) into a small API:
//
//	net, _ := netscatter.NewNetwork(netscatter.DefaultParams(), netscatter.Options{Devices: 64, Seed: 1})
//	round, _ := net.Run(map[int][]byte{0: []byte("hi"), 5: []byte("yo")})
//	fmt.Println(round.Payloads[0], round.Payloads[5])
//
// The cmd/ binaries and examples/ directories exercise this API; the
// internal/exper registry regenerates every table and figure of the
// paper's evaluation.
package netscatter

import (
	"fmt"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/hw"
	"netscatter/internal/mac"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// Params is the physical-layer configuration.
type Params struct {
	// SF is the spreading factor (9 in the paper's deployment).
	SF int
	// BandwidthHz is the chirp bandwidth (500 kHz in the deployment).
	BandwidthHz float64
	// Skip is the minimum cyclic-shift spacing between devices (2 in
	// the deployment; larger spacing is used automatically when fewer
	// devices than slots are present).
	Skip int
	// Oversample > 1 enables the bandwidth-aggregation mode of §3.1.
	Oversample int
}

// DefaultParams returns the deployed configuration: 500 kHz, SF 9,
// SKIP 2 — 256 concurrent devices at 976 bps each.
func DefaultParams() Params {
	return Params{SF: 9, BandwidthHz: 500e3, Skip: 2, Oversample: 1}
}

func (p Params) chirp() chirp.Params {
	return chirp.Params{SF: p.SF, BW: p.BandwidthHz, Oversample: p.Oversample}
}

// DeviceBitRate returns the per-device ON-OFF keying bitrate: BW/2^SF.
func (p Params) DeviceBitRate() float64 { return p.chirp().OOKBitRate() }

// MaxDevices returns the number of concurrent devices supported:
// Oversample·2^SF/Skip.
func (p Params) MaxDevices() int { return p.chirp().N() / p.Skip }

// Options configures a simulated network.
type Options struct {
	// Devices is the number of tags to deploy (<= Params.MaxDevices).
	Devices int
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// PayloadBytes per device per round (default 5, as in §4.4).
	PayloadBytes int
	// Office overrides the floor plan (default: the 12-room 40x20 m
	// office of the paper's deployment).
	Office *deploy.FloorPlan
	// DisablePowerControl turns off device power adaptation.
	DisablePowerControl bool
	// Fading enables per-round Ricean channel variation.
	Fading bool
}

// Network is a simulated NetScatter deployment: an AP plus Devices tags
// placed across an office floor, associated and ready to run concurrent
// rounds.
type Network struct {
	params  Params
	opts    Options
	cp      chirp.Params
	book    *core.CodeBook
	decoder *core.ParallelDecoder
	dep     *deploy.Deployment
	rng     *dsp.Rand

	devices []*Device
}

// Device is one simulated tag.
type Device struct {
	// Index is the device's position in the network (0-based).
	Index int
	// Shift is its assigned cyclic shift.
	Shift int
	// Slot is its code-book slot.
	Slot int
	// SNRdB is its uplink SNR at maximum power gain.
	SNRdB float64
	// GainDB is its current backscatter power-gain setting.
	GainDB float64
	// Position on the floor plan, in meters.
	Position deploy.Point
	// DownlinkRSSIdBm is the AP query strength at the tag's envelope
	// detector — the input to the power-adaptation loop.
	DownlinkRSSIdBm float64

	enc   *Encoder
	osc   radio.Oscillator
	fader *radio.FadingProcess
	pc    *mac.PowerController
}

// Encoder aliases the core encoder for advanced use.
type Encoder = core.Encoder

// NewNetwork deploys and associates a network.
func NewNetwork(params Params, opts Options) (*Network, error) {
	cp := params.chirp()
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if opts.Devices <= 0 {
		return nil, fmt.Errorf("netscatter: Options.Devices must be positive")
	}
	if opts.Devices > params.MaxDevices() {
		return nil, fmt.Errorf("netscatter: %d devices exceed capacity %d", opts.Devices, params.MaxDevices())
	}
	if opts.PayloadBytes == 0 {
		opts.PayloadBytes = 5
	}
	plan := deploy.DefaultOffice
	if opts.Office != nil {
		plan = *opts.Office
	}
	rng := dsp.NewRand(opts.Seed)
	dep := deploy.Generate(plan, radio.DefaultLinkBudget, opts.Devices, params.BandwidthHz, rng)

	// The simulator's code-book sizing (effective SKIP grows when fewer
	// devices than slots) and receiver defaults.
	scfg := sim.Config{Params: cp, Skip: params.Skip}
	book, err := sim.BuildCodeBook(scfg, opts.Devices)
	if err != nil {
		return nil, err
	}

	n := &Network{
		params:  params,
		opts:    opts,
		cp:      cp,
		book:    book,
		decoder: core.NewParallelDecoder(book, sim.ResolveDecoderConfig(scfg, book.Skip()), 0),
		dep:     dep,
		rng:     rng,
	}

	// Association: power rule, then power-aware allocation.
	ids := make([]uint8, opts.Devices)
	snrs := make([]float64, opts.Devices)
	gains := make([]float64, opts.Devices)
	pcs := make([]*mac.PowerController, opts.Devices)
	for i := 0; i < opts.Devices; i++ {
		ids[i] = uint8(i)
		gain := 0.0
		if !opts.DisablePowerControl {
			pcs[i] = mac.NewPowerController()
			gain = pcs[i].AssociateGainDB(dep.Devices[i].DownlinkRSSIdBm)
		}
		gains[i] = gain
		snrs[i] = dep.Devices[i].UplinkSNRdB + gain
	}
	alloc := mac.NewDataOnlyAllocator(book)
	assign := alloc.AssignAll(ids, snrs)

	for i := 0; i < opts.Devices; i++ {
		slot := assign[uint8(i)]
		shift := book.ShiftOfSlot(slot)
		dev := &Device{
			Index:           i,
			Shift:           shift,
			Slot:            slot,
			SNRdB:           dep.Devices[i].UplinkSNRdB,
			GainDB:          gains[i],
			Position:        dep.Devices[i].Pos,
			DownlinkRSSIdBm: dep.Devices[i].DownlinkRSSIdBm,
			enc:             core.NewEncoder(cp, shift),
			osc:             radio.NewBackscatterOscillator(rng, 20, 50),
			pc:              pcs[i],
		}
		if opts.Fading {
			dev.fader = radio.NewFadingProcess(10, 0.97, rng.Fork())
		}
		n.devices = append(n.devices, dev)
	}
	return n, nil
}

// Devices returns the network's tags.
func (n *Network) Devices() []*Device { return n.devices }

// Params returns the network's physical-layer configuration.
func (n *Network) Params() Params { return n.params }

// Round is the outcome of one concurrent transmission round.
type Round struct {
	// Payloads maps device index to the correctly decoded payload
	// (CRC-checked). Devices that failed to decode are absent.
	Payloads map[int][]byte
	// Detected lists whether each transmitting device's preamble was
	// found.
	Detected map[int]bool
	// Duration is the round's on-air time in seconds (query + shared
	// preamble + payload).
	Duration float64
	// FFTs is the number of receiver FFT operations (constant in the
	// number of devices).
	FFTs int
}

// Run executes one concurrent round: every device with an entry in
// payloads transmits simultaneously; the AP decodes them all from one
// received stream. All payloads must share a length.
func (n *Network) Run(payloads map[int][]byte) (*Round, error) {
	if len(payloads) == 0 {
		return nil, fmt.Errorf("netscatter: no payloads")
	}
	size := -1
	for idx, pl := range payloads {
		if idx < 0 || idx >= len(n.devices) {
			return nil, fmt.Errorf("netscatter: device index %d out of range", idx)
		}
		if size == -1 {
			size = len(pl)
		} else if len(pl) != size {
			return nil, fmt.Errorf("netscatter: payload sizes differ (%d vs %d)", size, len(pl))
		}
	}
	payloadBits := size*8 + core.CRCBits
	frameSymbols := core.PreambleSymbols + payloadBits

	var txs []air.Transmission
	var shifts []int
	var idxs []int
	for idx := 0; idx < len(n.devices); idx++ {
		pl, ok := payloads[idx]
		if !ok {
			continue
		}
		dev := n.devices[idx]
		var fade complex128
		fadeDB := 0.0
		if dev.fader != nil {
			fade = dev.fader.Step()
			fadeDB = radio.LinearToDB(real(fade)*real(fade) + imag(fade)*imag(fade))
		}
		// Zero-overhead power adaptation (§3.2.3): the channel is
		// reciprocal, so the query's envelope-detector RSSI moves with
		// the same fading the uplink sees; the device counter-steers
		// its backscatter gain.
		if dev.pc != nil {
			if gain, participate := dev.pc.Adjust(dev.DownlinkRSSIdBm + fadeDB); participate {
				dev.GainDB = gain
			} else {
				continue // sit the round out rather than transmit badly
			}
		}
		tx := dev.enc.Tx(core.FrameBits(pl))
		tx.SNRdB = dev.SNRdB + dev.GainDB
		tx.DelaySec = hw.DefaultDelayModel.Draw(n.rng) + hw.PropagationDelaySec(dev.Position.Distance(n.dep.Plan.AP))
		tx.FreqOffsetHz = dev.osc.PacketOffsetHz(n.rng)
		tx.FadeGain = fade
		txs = append(txs, tx)
		shifts = append(shifts, dev.Shift)
		idxs = append(idxs, idx)
	}

	ch := air.NewChannel(n.cp, n.rng)
	sig := ch.Receive(ch.FrameLength(frameSymbols, 2), txs)
	res, err := n.decoder.DecodeFrame(sig, 0, shifts, payloadBits)
	if err != nil {
		return nil, err
	}

	t := radio.DefaultASK
	round := &Round{
		Payloads: map[int][]byte{},
		Detected: map[int]bool{},
		Duration: t.Duration(32) + float64(frameSymbols)*n.cp.SymbolPeriod(),
		FFTs:     res.FFTs,
	}
	for i, dev := range res.Devices {
		idx := idxs[i]
		round.Detected[idx] = dev.Detected
		if dev.CRCOK {
			// The decode result aliases decoder arenas reused by the next
			// Run; the Round escapes to the caller, so copy.
			round.Payloads[idx] = append([]byte(nil), dev.Payload...)
		}
	}
	return round, nil
}

// AggregateThroughput returns the ideal aggregate network throughput in
// bits/s: Devices·BW/2^SF (§3.1: the whole bandwidth).
func (n *Network) AggregateThroughput() float64 {
	return float64(len(n.devices)) * n.cp.OOKBitRate()
}

// SNRSpread returns the deployment's max-min uplink SNR spread in dB.
func (n *Network) SNRSpread() float64 { return n.dep.SNRSpreadDB() }
