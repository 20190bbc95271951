// Package canbus models the Controller Area Network that connects the
// computing platform to the vehicle's ECU (Fig. 7). It provides CAN 2.0A
// frame encoding for control commands, ID priorities (lower ID wins; the
// worst-case response-time analysis is schedule.go), and a bit-level timing
// model that reproduces the ~1 ms Tdata the paper measures for command
// delivery.
package canbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Standard 11-bit identifiers used on the vehicle bus. Lower ID = higher
// priority; the reactive-path override outranks everything else.
const (
	IDReactiveOverride uint32 = 0x010
	IDControlCommand   uint32 = 0x020
	IDVehicleStatus    uint32 = 0x030
	IDDiagnostics      uint32 = 0x100

	maxStandardID uint32 = 0x7FF
)

// Frame is a classic CAN 2.0A data frame (11-bit ID, up to 8 data bytes).
type Frame struct {
	ID   uint32
	Data [8]byte
	DLC  int
}

// NewFrame builds a frame, validating the identifier and payload length.
func NewFrame(id uint32, payload []byte) (Frame, error) {
	if id > maxStandardID {
		return Frame{}, fmt.Errorf("canbus: id %#x exceeds 11-bit range", id)
	}
	if len(payload) > 8 {
		return Frame{}, fmt.Errorf("canbus: payload %d bytes exceeds 8", len(payload))
	}
	f := Frame{ID: id, DLC: len(payload)}
	copy(f.Data[:], payload)
	return f, nil
}

// BitLength returns the worst-case wire length of the frame in bits: the
// 47 overhead bits of a standard data frame plus 8*DLC payload bits plus
// worst-case bit stuffing (one stuff bit per 5 bits of the stuffable
// region).
func (f Frame) BitLength() int {
	stuffable := 34 + 8*f.DLC // SOF..CRC region subject to stuffing
	stuffBits := stuffable / 5
	return 47 + 8*f.DLC + stuffBits
}

// Command is the planner's control output carried over the bus: steering
// angle, acceleration (negative = braking), and an emergency-stop flag for
// the reactive path.
type Command struct {
	SteerRad  float64 // steering angle, positive left
	AccelMps2 float64 // longitudinal acceleration demand
	EStop     bool    // reactive-path hard stop
	Seq       uint16  // sequence number for loss detection
}

// scale factors for the fixed-point encoding (centirad / centi-m/s²).
const cmdScale = 100.0

// EncodeCommand packs a Command into a CAN frame with the given ID.
func EncodeCommand(id uint32, c Command) (Frame, error) {
	steer := c.SteerRad * cmdScale
	accel := c.AccelMps2 * cmdScale
	// Written as !(… <= …) so NaN, which compares false, is rejected too.
	if !(math.Abs(steer) <= math.MaxInt16) || !(math.Abs(accel) <= math.MaxInt16) {
		return Frame{}, fmt.Errorf("canbus: command out of encodable range: %+v", c)
	}
	var payload [8]byte
	binary.BigEndian.PutUint16(payload[0:2], uint16(int16(math.Round(steer))))
	binary.BigEndian.PutUint16(payload[2:4], uint16(int16(math.Round(accel))))
	if c.EStop {
		payload[4] = 1
	}
	binary.BigEndian.PutUint16(payload[5:7], c.Seq)
	payload[7] = checksum(payload[:7])
	return NewFrame(id, payload[:])
}

// ErrBadChecksum is returned when a decoded frame fails its checksum.
var ErrBadChecksum = errors.New("canbus: bad command checksum")

// ErrShortFrame is returned when a frame is too short to hold a Command.
var ErrShortFrame = errors.New("canbus: frame too short for command")

// DecodeCommand unpacks a Command from a frame.
func DecodeCommand(f Frame) (Command, error) {
	if f.DLC < 8 {
		return Command{}, ErrShortFrame
	}
	if checksum(f.Data[:7]) != f.Data[7] {
		return Command{}, ErrBadChecksum
	}
	return Command{
		SteerRad:  float64(int16(binary.BigEndian.Uint16(f.Data[0:2]))) / cmdScale,
		AccelMps2: float64(int16(binary.BigEndian.Uint16(f.Data[2:4]))) / cmdScale,
		EStop:     f.Data[4] == 1,
		Seq:       binary.BigEndian.Uint16(f.Data[5:7]),
	}, nil
}

func checksum(b []byte) byte {
	var s byte
	for _, v := range b {
		s ^= v
		s = s<<1 | s>>7
	}
	return s
}

// Bus models a single CAN segment; transmission time follows the bit-time
// model.
type Bus struct {
	// BitRate in bits/second (500 kbit/s typical for powertrain buses).
	BitRate int
	// ControllerDelay models driver + controller queuing at each end;
	// this is what pushes the measured Tdata toward the paper's ~1 ms.
	ControllerDelay time.Duration
}

// NewBus returns a 500 kbit/s bus with controller delays calibrated so a
// command frame's end-to-end Tdata is ≈1 ms.
func NewBus() *Bus {
	return &Bus{BitRate: 500_000, ControllerDelay: 350 * time.Microsecond}
}

// TransmitTime returns the pure wire time for one frame.
func (b *Bus) TransmitTime(f Frame) time.Duration {
	if b.BitRate <= 0 {
		return 0
	}
	return time.Duration(float64(f.BitLength()) / float64(b.BitRate) * float64(time.Second))
}

// CommandLatency is the one-shot convenience used by the SoV pipeline: the
// end-to-end Tdata for a single command frame on an otherwise idle bus.
func (b *Bus) CommandLatency() time.Duration {
	f, err := EncodeCommand(IDControlCommand, Command{})
	if err != nil {
		panic(err) // zero command is always encodable
	}
	return b.TransmitTime(f) + 2*b.ControllerDelay
}
