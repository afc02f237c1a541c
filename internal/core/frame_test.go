package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestFrameBitsRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		bits := FrameBits(payload)
		if len(bits) != len(payload)*8+CRCBits {
			return false
		}
		got := make([]byte, len(payload))
		return CheckFrameBitsInto(got, bits) && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBitsDetectsCorruption(t *testing.T) {
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}
	bits := FrameBits(payload)
	for i := range bits {
		bits[i] ^= 1
		if CheckFrameBitsInto(make([]byte, len(payload)), bits) {
			t.Fatalf("bit flip at %d not detected", i)
		}
		bits[i] ^= 1
	}
}

func TestCheckFrameBitsRejectsBadLengths(t *testing.T) {
	if CheckFrameBitsInto(nil, nil) {
		t.Error("nil bits accepted")
	}
	if CheckFrameBitsInto(nil, make([]byte, 7)) {
		t.Error("too-short bits accepted")
	}
	if CheckFrameBitsInto(nil, make([]byte, 13)) {
		t.Error("non-byte-aligned payload accepted")
	}
}

func TestFrameSymbols(t *testing.T) {
	// 5-byte payload (the paper's network experiments): 8 preamble
	// symbols + 40 payload bits + 8 CRC bits.
	if got := FrameSymbols(5); got != 56 {
		t.Fatalf("FrameSymbols(5) = %d, want 56", got)
	}
}

func TestCRC8KnownValue(t *testing.T) {
	// CRC-8/ATM of "123456789" is 0xF4.
	data := []byte("123456789")
	bits := FrameBits(data)[:8*len(data)]
	if got := crc8(bits); got != 0xF4 {
		t.Fatalf("crc8(123456789) = %#x, want 0xF4", got)
	}
}
