// Nearfar: demonstrates the near-far machinery of §3.2.3 at the
// physical layer, using the internal packages directly. A strong device
// (near the AP) and a weak device (far, below the noise floor) transmit
// concurrently. With naive adjacent shifts the weak device drowns in
// the strong device's side lobes; with the power-aware assignment —
// far-apart shifts — both decode, up to a ~35 dB power difference.
package main

import (
	"fmt"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
)

func decodePair(strongShift, weakShift int, strongSNR, weakSNR float64, seed int64) (strongOK, weakOK bool) {
	p := chirp.Default500k9
	book, _ := core.NewCodeBook(p, 2)
	dec := core.NewDecoder(book, core.DefaultDecoderConfig(2))

	strongPayload := []byte{0xAA, 0x55, 0xAA, 0x55}
	weakPayload := []byte{0x12, 0x34, 0x56, 0x78}
	bits := len(strongPayload)*8 + core.CRCBits

	encS := core.NewEncoder(p, strongShift)
	encW := core.NewEncoder(p, weakShift)
	bitsS := core.FrameBits(strongPayload)
	bitsW := core.FrameBits(weakPayload)
	rng := dsp.NewRand(seed)
	ch := air.NewChannel(p, rng)
	// The channel folds each device's frequency offset and carrier
	// gain into the recurrence that generates its chirp templates.
	strong, weak := encS.Tx(bitsS), encW.Tx(bitsW)
	strong.SNRdB, strong.FreqOffsetHz = strongSNR, rng.Normal(0, 100)
	weak.SNRdB, weak.FreqOffsetHz = weakSNR, rng.Normal(0, 100)
	sig := ch.Receive(ch.FrameLength(core.PreambleSymbols+bits, 2), []air.Transmission{strong, weak})
	res, err := dec.DecodeFrame(sig, 0, []int{strongShift, weakShift}, bits)
	if err != nil {
		return false, false
	}
	s, w := res.Devices[0], res.Devices[1]
	return s.CRCOK && string(s.Payload) == string(strongPayload),
		w.CRCOK && string(w.Payload) == string(weakPayload)
}

func main() {
	const strongSNR = 20.0 // a device near the AP
	fmt.Println("near-far demo: strong device at +20 dB, weak device below the noise floor")
	fmt.Println()

	fmt.Printf("%-28s %-14s %-10s %-10s\n", "assignment", "ΔP (dB)", "strong", "weak")
	show := func(name string, strongShift, weakShift int, weakSNR float64) {
		okS, okW := 0, 0
		const trials = 10
		for t := int64(0); t < trials; t++ {
			s, w := decodePair(strongShift, weakShift, strongSNR, weakSNR, t+1)
			if s {
				okS++
			}
			if w {
				okW++
			}
		}
		fmt.Printf("%-28s %-14.0f %2d/%-8d %2d/%-8d\n",
			name, strongSNR-weakSNR, okS, trials, okW, trials)
	}

	// Adjacent shifts (2 bins apart): the strong device's first side
	// lobe (-13.5 dB) sits right on the weak device.
	show("adjacent shifts (bins 0,2)", 0, 2, -10)
	// Power-aware: the weak device gets the far side of the spectrum,
	// where the side lobes have decayed by > 50 dB.
	show("power-aware (bins 0,256)", 0, 256, -10)
	show("power-aware (bins 0,256)", 0, 256, -14)

	fmt.Println()
	fmt.Println("this is why the AP sorts devices by signal strength and assigns")
	fmt.Println("low-SNR devices cyclic shifts far from high-SNR devices (§3.2.3);")
	fmt.Println("Fig. 15b quantifies the tolerance: ~5 dB at 2 bins, 35 dB mid-spectrum.")
}
