// Package netscatter is a from-scratch reproduction of "NetScatter:
// Enabling Large-Scale Backscatter Networks" (Hessar, Najafi, Gollakota;
// NSDI 2019): the first wireless protocol scaling to hundreds of
// concurrent backscatter transmissions via distributed chirp spread
// spectrum coding — each device ON-OFF keys its own cyclic shift of a
// shared chirp, and the access point decodes everyone with a single FFT
// per symbol.
//
// This package is the public facade: a small API over the simulator's
// one-AP network, stepped by a trajectory on the caller's payloads, so
// its rounds take the simulator's one round path:
//
//	net, _ := netscatter.NewNetwork(netscatter.DefaultParams(), netscatter.Options{Devices: 64, Seed: 1, PayloadBytes: 2})
//	round, _ := net.Run(map[int][]byte{0: []byte("hi"), 5: []byte("yo")})
//	fmt.Println(round.Payloads[0], round.Payloads[5])
//
// The examples/ directories exercise this API; the
// internal/exper registry regenerates every table and figure of the
// paper's evaluation.
package netscatter

import (
	"fmt"

	"netscatter/internal/chirp"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
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
	// PayloadBytes per device per round (default 5, as in §4.4). Run
	// accepts only payloads of this length.
	PayloadBytes int
	// Fading enables per-round correlated Ricean channel variation,
	// which the devices' power rule follows.
	Fading bool
}

// Network is a simulated NetScatter deployment: an AP plus Devices tags
// placed across an office floor, associated and ready to run concurrent
// rounds. It is a view of the simulator's one-AP network stepped by a
// trajectory: every round takes the simulator's one round path.
type Network struct {
	params       Params
	payloadBytes int
	dep          *deploy.Deployment
	net          *sim.Network
	tr           *sim.Trajectory
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
}

// NewNetwork deploys and associates a network: geometry from Seed, the
// network's own draws from Seed+1, as for a served deployment.
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
	if opts.PayloadBytes < 0 {
		return nil, fmt.Errorf("netscatter: Options.PayloadBytes must not be negative")
	}
	if opts.PayloadBytes == 0 {
		opts.PayloadBytes = 5
	}
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, opts.Devices, params.BandwidthHz, dsp.NewRand(opts.Seed))
	cfg := sim.DefaultConfig()
	cfg.Params = cp
	cfg.Skip = params.Skip
	cfg.PayloadBytes = opts.PayloadBytes
	net, err := sim.NewNetwork(cfg, dep, opts.Devices, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	tcfg := sim.TrajectoryConfig{Seed: opts.Seed, NoSeries: true}
	if opts.Fading {
		tcfg.Correlation = 0.97
	}
	tr, err := sim.NewTrajectory(net.MultiAPNetwork, tcfg)
	if err != nil {
		return nil, err
	}
	return &Network{params: params, payloadBytes: opts.PayloadBytes, dep: dep, net: net, tr: tr}, nil
}

// Devices returns the network's tags as of the last round.
func (n *Network) Devices() []*Device {
	out := make([]*Device, len(n.dep.Devices))
	for i := range out {
		d := &n.dep.Devices[i]
		slot := n.net.SlotOf(i)
		out[i] = &Device{
			Index:           i,
			Shift:           n.net.Book().ShiftOfSlot(slot),
			Slot:            slot,
			SNRdB:           d.UplinkSNRdB,
			GainDB:          n.net.GainOf(i),
			Position:        d.Pos,
			DownlinkRSSIdBm: d.DownlinkRSSIdBm,
		}
	}
	return out
}

// Round is the outcome of one concurrent transmission round.
type Round struct {
	// Payloads maps device index to the correctly decoded payload
	// (CRC-checked). Devices that failed to decode are absent.
	Payloads map[int][]byte
	// Detected lists whether each device given a payload had its
	// preamble found (false when its power rule sat the round out).
	Detected map[int]bool
	// Duration is the round's on-air time in seconds (query + shared
	// preamble + payload).
	Duration float64
	// FFTs is the number of receiver FFT operations (constant in the
	// number of devices).
	FFTs int
}

// Run executes one concurrent round: every device with an entry in
// payloads transmits simultaneously, unless its power rule sits the
// round out; the AP decodes them all from one received stream. Every
// payload must be Options.PayloadBytes long.
func (n *Network) Run(payloads map[int][]byte) (*Round, error) {
	if len(payloads) == 0 {
		return nil, fmt.Errorf("netscatter: no payloads")
	}
	frames := make([][]byte, len(n.dep.Devices))
	for idx, pl := range payloads {
		if idx < 0 || idx >= len(frames) {
			return nil, fmt.Errorf("netscatter: device index %d out of range", idx)
		}
		if len(pl) != n.payloadBytes {
			return nil, fmt.Errorf("netscatter: device %d payload is %d bytes, want %d", idx, len(pl), n.payloadBytes)
		}
		frames[idx] = pl
	}
	stats, err := n.tr.StepFrames(frames)
	if err != nil {
		return nil, err
	}
	dec := stats.Decodes[0]
	round := &Round{
		Payloads: map[int][]byte{},
		Detected: map[int]bool{},
		Duration: stats.Combined.RoundSecs,
		FFTs:     dec.FFTs,
	}
	for idx := range payloads {
		dev := &dec.Devices[idx]
		round.Detected[idx] = dev.Detected
		if dev.CRCOK {
			// The decode aliases arenas the next round reuses; the
			// Round escapes to the caller, so copy.
			round.Payloads[idx] = append([]byte(nil), dev.Payload...)
		}
	}
	return round, nil
}

// AggregateThroughput returns the ideal aggregate network throughput in
// bits/s: Devices·BW/2^SF (§3.1: the whole bandwidth).
func (n *Network) AggregateThroughput() float64 {
	return float64(len(n.dep.Devices)) * n.params.DeviceBitRate()
}

// SNRSpread returns the deployment's max-min uplink SNR spread in dB.
func (n *Network) SNRSpread() float64 { return n.dep.SNRSpreadDB() }
