package exper

import (
	"fmt"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
)

func init() {
	register(Experiment{
		ID:    "B1",
		Title: "Bandwidth aggregation: one wide FFT vs two bands",
		Ref:   "§3.1, Fig. 5",
		Run:   runAggregate,
	})
}

// runAggregate demonstrates the paper's bandwidth-aggregation argument:
// doubling the device count at constant per-device bitrate by doubling
// the band, decoded either as two independent single-band networks (two
// FFTs per symbol) or one aggregate band (a single, double-size FFT).
// Both must deliver every frame; the aggregate decoder does it with
// half the FFT invocations.
func runAggregate(cfg Config) (*Result, error) {
	rng := dsp.NewRand(cfg.Seed)
	payloadBytes := 3
	bits := payloadBytes*8 + core.CRCBits
	nPerBand := 16

	// --- aggregate: one network over 2·BW (Oversample = 2). ---
	pAgg := chirp.Params{SF: 7, BW: 125e3, Oversample: 2}
	bookAgg, err := core.NewCodeBook(pAgg, 2)
	if err != nil {
		return nil, err
	}
	shifts := make([]int, 2*nPerBand)
	payloads := make([][]byte, 2*nPerBand)
	var txs []air.Transmission
	for i := range shifts {
		shifts[i] = bookAgg.ShiftOfSlot(i * (bookAgg.Slots() / len(shifts)))
		payloads[i] = rng.Bytes(payloadBytes)
		tx := core.NewEncoder(pAgg, shifts[i]).Tx(core.FrameBits(payloads[i]))
		tx.SNRdB = rng.Uniform(6, 12)
		tx.DelaySec = rng.Uniform(0, 0.3) / pAgg.BW
		txs = append(txs, tx)
	}
	ch := air.NewChannel(pAgg, rng)
	sig := ch.Receive(ch.FrameLength(core.PreambleSymbols+bits, 2), txs)
	dec := core.NewDecoder(bookAgg, core.DefaultDecoderConfig(2))
	resAgg, err := dec.DecodeFrame(sig, 0, shifts, bits)
	if err != nil {
		return nil, err
	}
	aggOK := 0
	for i, dev := range resAgg.Devices {
		if dev.CRCOK && string(dev.Payload) == string(payloads[i]) {
			aggOK++
		}
	}

	// --- split: two independent single-band networks. ---
	pOne := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	bookOne, err := core.NewCodeBook(pOne, 2)
	if err != nil {
		return nil, err
	}
	splitOK, splitFFTs := 0, 0
	for band := 0; band < 2; band++ {
		bandShifts := make([]int, nPerBand)
		bandPayloads := make([][]byte, nPerBand)
		var bandTxs []air.Transmission
		for i := range bandShifts {
			bandShifts[i] = bookOne.ShiftOfSlot(i * (bookOne.Slots() / nPerBand))
			bandPayloads[i] = rng.Bytes(payloadBytes)
			tx := core.NewEncoder(pOne, bandShifts[i]).Tx(core.FrameBits(bandPayloads[i]))
			tx.SNRdB = rng.Uniform(6, 12)
			tx.DelaySec = rng.Uniform(0, 0.3) / pOne.BW
			bandTxs = append(bandTxs, tx)
		}
		chOne := air.NewChannel(pOne, rng)
		sigOne := chOne.Receive(chOne.FrameLength(core.PreambleSymbols+bits, 2), bandTxs)
		decOne := core.NewDecoder(bookOne, core.DefaultDecoderConfig(2))
		resOne, err := decOne.DecodeFrame(sigOne, 0, bandShifts, bits)
		if err != nil {
			return nil, err
		}
		splitFFTs += resOne.FFTs
		for i, dev := range resOne.Devices {
			if dev.CRCOK && string(dev.Payload) == string(bandPayloads[i]) {
				splitOK++
			}
		}
	}

	res := &Result{ID: "B1", Title: "Bandwidth aggregation (§3.1, Fig. 5)"}
	t := Table{
		Columns: []string{"decoder", "devices", "frames OK", "FFTs/frame", "FFT size"},
		Rows: [][]string{
			{"aggregate (one 2BW FFT)", fmt.Sprintf("%d", 2*nPerBand),
				fmt.Sprintf("%d", aggOK), fmt.Sprintf("%d", resAgg.FFTs),
				fmt.Sprintf("%d", dec.Demodulator().PaddedBins())},
			{"split (two BW FFTs)", fmt.Sprintf("%d", 2*nPerBand),
				fmt.Sprintf("%d", splitOK), fmt.Sprintf("%d", splitFFTs),
				fmt.Sprintf("2x%d", core.NewDecoder(bookOne, core.DefaultDecoderConfig(2)).Demodulator().PaddedBins())},
		},
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"both decoders deliver the same frames; the aggregate band needs one FFT invocation per symbol",
		"instead of two (plus no per-band filters), the lower-complexity option §3.1 argues for")
	return res, nil
}
