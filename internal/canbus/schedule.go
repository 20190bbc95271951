package canbus

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// PeriodicMessage is one entry of the vehicle's CAN schedule.
type PeriodicMessage struct {
	Name   string
	ID     uint32
	DLC    int
	Period time.Duration
}

// DefaultSchedule returns the deployed bus schedule: reactive overrides
// (event-driven, modeled at their radar rate), control commands at 10 Hz,
// vehicle status at 50 Hz, diagnostics at 1 Hz.
func DefaultSchedule() []PeriodicMessage {
	return []PeriodicMessage{
		{Name: "reactive-override", ID: IDReactiveOverride, DLC: 8, Period: 50 * time.Millisecond},
		{Name: "control-command", ID: IDControlCommand, DLC: 8, Period: 100 * time.Millisecond},
		{Name: "vehicle-status", ID: IDVehicleStatus, DLC: 8, Period: 20 * time.Millisecond},
		{Name: "diagnostics", ID: IDDiagnostics, DLC: 8, Period: time.Second},
	}
}

// frameTime returns the wire time of one message instance.
func frameTime(m PeriodicMessage, bitRate int) time.Duration {
	f := Frame{ID: m.ID, DLC: m.DLC}
	return time.Duration(float64(f.BitLength()) / float64(bitRate) * float64(time.Second))
}

// BusLoad returns the schedule's utilization fraction of the bus.
func BusLoad(sched []PeriodicMessage, bitRate int) float64 {
	u := 0.0
	for _, m := range sched {
		if m.Period <= 0 {
			continue
		}
		u += frameTime(m, bitRate).Seconds() / m.Period.Seconds()
	}
	return u
}

// ResponseTime holds the classical CAN worst-case response-time analysis
// result for one message.
type ResponseTime struct {
	Message PeriodicMessage
	// Blocking is the longest lower-priority frame that can be mid-flight.
	Blocking time.Duration
	// WorstCase = Blocking + interference from higher-priority traffic +
	// own transmission.
	WorstCase time.Duration
	// MeetsDeadline assumes deadline = period.
	MeetsDeadline bool
}

// AnalyzeSchedule performs fixed-point worst-case response-time analysis
// (Tindell/Davis style) over the schedule on a bus of the given bit rate.
// Lower ID = higher priority; a frame in flight cannot be preempted.
func AnalyzeSchedule(sched []PeriodicMessage, bitRate int) []ResponseTime {
	msgs := make([]PeriodicMessage, len(sched))
	copy(msgs, sched)
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].ID < msgs[j].ID })

	out := make([]ResponseTime, len(msgs))
	for i, m := range msgs {
		own := frameTime(m, bitRate)
		// Blocking: the longest frame among lower-priority messages.
		var blocking time.Duration
		for j := i + 1; j < len(msgs); j++ {
			if ft := frameTime(msgs[j], bitRate); ft > blocking {
				blocking = ft
			}
		}
		// Fixed-point iteration on the queueing delay w:
		// w = blocking + sum_{hp} ceil((w + tau) / T_hp) * C_hp.
		const tau = time.Microsecond // arbitration granularity
		w := blocking
		for iter := 0; iter < 100; iter++ {
			next := blocking
			for j := 0; j < i; j++ {
				hp := msgs[j]
				chp := frameTime(hp, bitRate)
				n := (w + tau + hp.Period - 1) / hp.Period
				next += time.Duration(n) * chp
			}
			if next == w {
				break
			}
			w = next
			if w > 10*time.Second {
				break // unschedulable; bail out
			}
		}
		rt := ResponseTime{
			Message:   m,
			Blocking:  blocking,
			WorstCase: w + own,
		}
		rt.MeetsDeadline = rt.WorstCase <= m.Period
		out[i] = rt
	}
	return out
}

// RenderAnalysis formats the schedule analysis as a table.
func RenderAnalysis(rts []ResponseTime, bitRate int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %10s %12s %12s %6s\n",
		"message", "ID", "period", "worst-case", "blocking", "ok")
	for _, rt := range rts {
		fmt.Fprintf(&b, "%-20s %#8x %10v %12v %12v %6v\n",
			rt.Message.Name, rt.Message.ID, rt.Message.Period,
			rt.WorstCase.Round(time.Microsecond), rt.Blocking.Round(time.Microsecond), rt.MeetsDeadline)
	}
	fmt.Fprintf(&b, "bus load: %.2f%%\n", 100*BusLoad(schedOf(rts), bitRate))
	return b.String()
}

func schedOf(rts []ResponseTime) []PeriodicMessage {
	out := make([]PeriodicMessage, len(rts))
	for i, rt := range rts {
		out[i] = rt.Message
	}
	return out
}
