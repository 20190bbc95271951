package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Trigger identifies why a flight-recorder dump fired.
type Trigger uint8

const (
	// TriggerCollision fires when the vehicle first contacts an obstacle.
	TriggerCollision Trigger = iota
	// TriggerReactive fires when the radar/sonar safety path engages.
	TriggerReactive
	// TriggerBlockedStreak fires when consecutive planning cycles report
	// blocked (the planner cannot find a feasible trajectory).
	TriggerBlockedStreak

	numTriggers
)

func (t Trigger) String() string {
	switch t {
	case TriggerCollision:
		return "collision"
	case TriggerReactive:
		return "reactive-engagement"
	case TriggerBlockedStreak:
		return "blocked-streak"
	default:
		return "unknown"
	}
}

// CycleRecord is one control cycle's condensed record — what the ring
// retains for forensics. Field names match the JSONL trace so offline
// tooling can share parsers.
type CycleRecord struct {
	Cycle        int     `json:"cycle"`
	TMs          float64 `json:"t_ms"`
	X            float64 `json:"x"`
	Y            float64 `json:"y"`
	Speed        float64 `json:"v"`
	SensingMs    float64 `json:"sensing_ms"`
	PerceptionMs float64 `json:"perception_ms"`
	PlanningMs   float64 `json:"planning_ms"`
	TcompMs      float64 `json:"tcomp_ms"`
	Objects      int     `json:"objects"`
	Blocked      bool    `json:"blocked,omitempty"`
	Reactive     bool    `json:"reactive,omitempty"`
	InFlight     int     `json:"inflight"`
}

// Dump is one flight-recorder dump: the trigger, its virtual time, and the
// ring contents oldest-first at the dump instant. Dumps serialize as JSON
// lines on the recorder's sink.
type Dump struct {
	Seq      int           `json:"seq"`
	Trigger  string        `json:"trigger"`
	TMs      float64       `json:"t_ms"`
	Recorded int64         `json:"cycles_recorded"`
	Records  []CycleRecord `json:"records"`
}

// pendingTrigger is a trigger waiting for the record stream to catch up to
// its virtual time.
type pendingTrigger struct {
	tr  Trigger
	tMs float64
}

// maxPending bounds the deferred-trigger queue; anomaly storms beyond it
// are dropped rather than queued unboundedly.
const maxPending = 16

// BoxStats summarizes a recorder's activity.
type BoxStats struct {
	Dumps     int
	ByTrigger [numTriggers]int64
}

// FlightRecorder keeps a fixed ring of the last N cycle records and dumps
// it when an anomaly trigger fires. Record is allocation-free; dumps (rare
// by construction) marshal through encoding/json.
//
// Determinism: triggers raised from the physics or reactive paths carry a
// virtual timestamp and are deferred until the cycle-record stream reaches
// that time, so a dump's content depends only on virtual-time ordering,
// never on host scheduling. Dump bytes are therefore byte-identical across
// worker counts.
type FlightRecorder struct {
	mu   sync.Mutex
	w    io.Writer
	ring []CycleRecord

	total    int64
	streak   int
	streakAt int
	pending  []pendingTrigger
	nPending int

	// lastDumpMs rate-limits per-trigger dumps in virtual time so an
	// anomaly burst (a collision followed by repeated reactive engagements)
	// produces one dump per kind per window, not hundreds.
	lastDumpMs [numTriggers]float64

	stats BoxStats
	err   error
}

// dumpGapMs is the per-trigger virtual-time rate limit between dumps.
const dumpGapMs = 1000

// NewFlightRecorder returns a recorder ringing the last depth cycles
// (minimum 1) and dumping to w. blockedStreak sets how many consecutive
// blocked cycles raise TriggerBlockedStreak; 0 disables the streak trigger.
func NewFlightRecorder(w io.Writer, depth, blockedStreak int) *FlightRecorder {
	if depth < 1 {
		depth = 1
	}
	f := &FlightRecorder{
		w:        w,
		ring:     make([]CycleRecord, depth),
		streakAt: blockedStreak,
		pending:  make([]pendingTrigger, maxPending),
	}
	for i := range f.lastDumpMs {
		f.lastDumpMs[i] = math.Inf(-1)
	}
	return f
}

// Trigger raises an anomaly at virtual time tMs. The dump is deferred to
// the next Record whose capture time reaches tMs (or to Close), keeping the
// dump content independent of host scheduling. Safe to call from a
// different goroutine than Record.
func (f *FlightRecorder) Trigger(tr Trigger, tMs float64) {
	f.mu.Lock()
	if f.nPending < maxPending {
		f.pending[f.nPending] = pendingTrigger{tr: tr, tMs: tMs}
		f.nPending++
	}
	f.mu.Unlock()
}

// Record appends one cycle record to the ring, fires any pending triggers
// the stream has caught up with, and maintains the blocked-streak trigger.
//
//sov:hotpath
func (f *FlightRecorder) Record(rec CycleRecord) {
	f.mu.Lock()
	f.ring[f.total%int64(len(f.ring))] = rec
	f.total++
	if f.streakAt > 0 {
		if rec.Blocked {
			f.streak++
			if f.streak == f.streakAt {
				f.dumpLocked(TriggerBlockedStreak, rec.TMs)
			}
		} else {
			f.streak = 0
		}
	}
	n := 0
	for i := 0; i < f.nPending; i++ {
		p := f.pending[i]
		if p.tMs <= rec.TMs {
			f.dumpLocked(p.tr, p.tMs)
		} else {
			f.pending[n] = p
			n++
		}
	}
	f.nPending = n
	f.mu.Unlock()
}

// dumpLocked writes one dump (rate-limited per trigger kind). Caller holds
// the mutex. This is the cold path: it allocates freely.
func (f *FlightRecorder) dumpLocked(tr Trigger, tMs float64) {
	f.stats.ByTrigger[tr]++
	if tMs-f.lastDumpMs[tr] < dumpGapMs {
		return
	}
	f.lastDumpMs[tr] = tMs
	n := f.total
	depth := int64(len(f.ring))
	if n > depth {
		n = depth
	}
	//sovlint:ignore hotalloc trigger-dump path; runs once per incident, not per cycle
	records := make([]CycleRecord, 0, n)
	start := f.total - n
	for i := int64(0); i < n; i++ {
		records = append(records, f.ring[(start+i)%depth])
	}
	f.stats.Dumps++
	d := Dump{
		Seq:      f.stats.Dumps,
		Trigger:  tr.String(),
		TMs:      tMs,
		Recorded: f.total,
		Records:  records,
	}
	//sovlint:ignore hotalloc trigger-dump path; one JSON encode per incident, not per cycle
	b, err := json.Marshal(d)
	if err != nil {
		if f.err == nil {
			f.err = err
		}
		return
	}
	b = append(b, '\n')
	if _, err := f.w.Write(b); err != nil && f.err == nil {
		f.err = err
	}
}

// Close flushes triggers still pending at end of run (each dumps against
// the final ring) and returns the dump count and first error.
func (f *FlightRecorder) Close() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < f.nPending; i++ {
		f.dumpLocked(f.pending[i].tr, f.pending[i].tMs)
	}
	f.nPending = 0
	return f.stats.Dumps, f.err
}

// Stats returns the recorder's activity counters.
func (f *FlightRecorder) Stats() BoxStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
