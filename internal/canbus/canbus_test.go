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

// TestEncodeRejectsNaN: NaN fails every comparison, so a range check
// written as |x| > max lets it through and it goes onto the bus as 0.
func TestEncodeRejectsNaN(t *testing.T) {
	for _, c := range []Command{{SteerRad: math.NaN()}, {AccelMps2: math.NaN()}} {
		if f, err := EncodeCommand(IDControlCommand, c); err == nil {
			got, _ := DecodeCommand(f)
			t.Errorf("%+v encodes without error and decodes as %+v", c, got)
		}
	}
}

// FuzzCommandCodec holds the command frame codec to three properties:
// DecodeCommand never panics on an arbitrary frame; EncodeCommand either
// fails or produces a frame that decodes to each field within half a
// fixed-point step (EStop and Seq exact); and one flipped payload byte
// decodes to ErrBadChecksum or to a different command, never a panic.
func FuzzCommandCodec(f *testing.F) {
	f.Add(IDControlCommand, 0.25, -4.0, true, uint16(42), []byte{1, 2, 3, 4, 5, 6, 7, 8}, 8, uint8(1), uint8(0xFF))
	f.Add(IDReactiveOverride, -0.5, 2.5, false, uint16(65535), []byte{}, 3, uint8(7), uint8(1))
	f.Add(IDControlCommand, 327.67, -327.67, false, uint16(0), []byte{0xFF}, 9, uint8(4), uint8(0x80))
	f.Add(IDControlCommand, 327.68, 0.0, false, uint16(1), []byte(nil), -1, uint8(0), uint8(0))
	f.Add(IDVehicleStatus, math.NaN(), 0.0, false, uint16(2), []byte{0, 0, 0, 0, 0, 0, 0, 0}, 8, uint8(3), uint8(2))
	f.Add(uint32(0x800), 0.0, math.Inf(-1), true, uint16(3), []byte{9}, 1, uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, id uint32, steer, accel float64, estop bool, seq uint16, raw []byte, dlc int, at, mask uint8) {
		var fr Frame
		fr.ID, fr.DLC = id, dlc
		copy(fr.Data[:], raw)
		_, _ = DecodeCommand(fr)

		c := Command{SteerRad: steer, AccelMps2: accel, EStop: estop, Seq: seq}
		enc, err := EncodeCommand(id, c)
		encodable := id <= maxStandardID &&
			math.Abs(steer*cmdScale) <= math.MaxInt16 && math.Abs(accel*cmdScale) <= math.MaxInt16
		if err != nil {
			if encodable {
				t.Fatalf("EncodeCommand(%#x, %+v): %v", id, c, err)
			}
			return
		}
		if !encodable {
			t.Fatalf("EncodeCommand(%#x, %+v) accepted an unencodable command", id, c)
		}
		got, err := DecodeCommand(enc)
		if err != nil {
			t.Fatalf("DecodeCommand(EncodeCommand(%+v)): %v", c, err)
		}
		const halfStep = 0.5/cmdScale + 1e-9
		if math.Abs(got.SteerRad-steer) > halfStep || math.Abs(got.AccelMps2-accel) > halfStep ||
			got.EStop != estop || got.Seq != seq {
			t.Fatalf("%+v round-trips to %+v", c, got)
		}

		if mask == 0 {
			mask = 1
		}
		bad := enc
		bad.Data[at%8] ^= mask
		if corrupt, err := DecodeCommand(bad); err != ErrBadChecksum && (err != nil || corrupt == got) {
			t.Fatalf("byte %d ^ %#x of %+v decodes to %+v, %v", at%8, mask, c, corrupt, err)
		}
	})
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
