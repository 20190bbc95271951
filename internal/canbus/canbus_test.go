package canbus

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCommandRoundTrip(t *testing.T) {
	cases := []Command{
		{},
		{SteerRad: 0.25, AccelMps2: -4, EStop: true, Seq: 42},
		{SteerRad: -0.5, AccelMps2: 2.5, Seq: 65535},
	}
	for _, c := range cases {
		f, err := EncodeCommand(IDControlCommand, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCommand(f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.SteerRad-c.SteerRad) > 0.005 ||
			math.Abs(got.AccelMps2-c.AccelMps2) > 0.005 ||
			got.EStop != c.EStop || got.Seq != c.Seq {
			t.Fatalf("roundtrip %+v -> %+v", c, got)
		}
	}
}

func TestCommandRoundTripProperty(t *testing.T) {
	f := func(steer, accel float64, estop bool, seq uint16) bool {
		if math.IsNaN(steer) || math.IsNaN(accel) {
			return true
		}
		steer = math.Mod(steer, 3)
		accel = math.Mod(accel, 10)
		c := Command{SteerRad: steer, AccelMps2: accel, EStop: estop, Seq: seq}
		fr, err := EncodeCommand(IDControlCommand, c)
		if err != nil {
			return false
		}
		got, err := DecodeCommand(fr)
		if err != nil {
			return false
		}
		return math.Abs(got.SteerRad-steer) <= 0.0051 &&
			math.Abs(got.AccelMps2-accel) <= 0.0051 &&
			got.EStop == estop && got.Seq == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsHugeValues(t *testing.T) {
	if _, err := EncodeCommand(IDControlCommand, Command{SteerRad: 1e6}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	f, err := EncodeCommand(IDControlCommand, Command{SteerRad: 0.1, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	f.Data[1] ^= 0xFF
	if _, err := DecodeCommand(f); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeShortFrame(t *testing.T) {
	f, _ := NewFrame(IDControlCommand, []byte{1, 2, 3})
	if _, err := DecodeCommand(f); err != ErrShortFrame {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestNewFrameValidation(t *testing.T) {
	if _, err := NewFrame(0x800, nil); err == nil {
		t.Fatal("expected 11-bit ID error")
	}
	if _, err := NewFrame(0x10, make([]byte, 9)); err == nil {
		t.Fatal("expected payload length error")
	}
}

func TestBitLength(t *testing.T) {
	f, _ := NewFrame(0x10, make([]byte, 8))
	// 47 + 64 payload + stuffing((34+64)/5 = 19) = 130.
	if got := f.BitLength(); got != 130 {
		t.Fatalf("bit length = %d, want 130", got)
	}
	empty, _ := NewFrame(0x10, nil)
	if empty.BitLength() >= f.BitLength() {
		t.Fatal("empty frame should be shorter")
	}
}

func TestCommandLatencyAboutOneMillisecond(t *testing.T) {
	// Paper: Tdata ≈ 1 ms.
	lat := NewBus().CommandLatency()
	if lat < 700*time.Microsecond || lat > 1300*time.Microsecond {
		t.Fatalf("command latency = %v, want ~1 ms", lat)
	}
}

func TestReactiveOverrideOutranksControl(t *testing.T) {
	if IDReactiveOverride >= IDControlCommand {
		t.Fatal("reactive override must have the highest priority (lowest ID)")
	}
}

func TestTransmitTimeZeroBitrate(t *testing.T) {
	b := &Bus{BitRate: 0}
	f, _ := NewFrame(0x1, []byte{1})
	if b.TransmitTime(f) != 0 {
		t.Fatal("zero bitrate should yield zero time, not Inf")
	}
}
