// Package obs is the unified telemetry layer: a deterministic metrics
// registry, per-cycle span tracing in virtual time, and a flight recorder
// for anomaly forensics. It is the software counterpart of the paper's
// Fig. 1 fleet loop — condensed vehicle statistics uploaded and re-analyzed
// offline — generalized into three instruments:
//
//   - Registry: named counters, gauges, and fixed-bin histograms with a
//     stable, sorted Prometheus-style text exposition and a JSON snapshot.
//     Every metric is virtual-time: its value derives only from the
//     virtual clock and the seeded RNG streams, so the exposition is
//     byte-identical across worker counts and control-loop modes.
//   - SpanWriter: per-cycle spans (capture → sensing → perception{depth,
//     detect, track, vio} → planning → deliver → actuate) recorded in
//     virtual time with causal parent links, exported as Chrome
//     trace_event JSON loadable in Perfetto.
//   - FlightRecorder: a fixed ring of the last N cycle records, dumped on
//     collision, reactive engagement, or blocked-cycle streaks — crash
//     forensics without full-trace overhead.
//
// The steady-state record paths (Counter.Inc/Add, Gauge.Set,
// Histogram.Observe, SpanWriter.Span, FlightRecorder.Record) are
// allocation-free once warm and annotated //sov:hotpath for sovlint.
package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Class is a metric's determinism class. There is one: the host-time class
// went with its last emitter, and the type stays until the frozen benchmark
// stops passing it (ROADMAP item 7).
type Class uint8

// ClassVirtual marks values derived only from virtual time and seeded RNG
// streams: byte-identical across worker counts and control-loop modes for a
// fixed configuration.
const ClassVirtual Class = 0

// Counter is a monotonically increasing integer metric. Safe for concurrent
// use; Inc and Add never allocate.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//sov:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone).
//
//sov:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins float metric. Safe for concurrent use; Set
// never allocates.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//sov:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (zero before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bin histogram over [lo, hi); observations outside
// the range are clamped into the first/last bin so nothing is lost. The
// bin layout is fixed at registration, so the exposition is byte-stable
// and Observe never allocates.
type Histogram struct {
	mu     sync.Mutex
	lo     float64
	width  float64
	counts []int64
	count  int64
	sum    float64
}

// Observe records one value.
//
//sov:hotpath
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	idx := int((v - h.lo) / h.width)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot copies the histogram state under the lock.
func (h *Histogram) snapshot() (counts []int64, count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts = make([]int64, len(h.counts))
	copy(counts, h.counts)
	return counts, h.count, h.sum
}

// quantiles is the fixed set every histogram exposes.
var quantiles = [...]float64{0.50, 0.95, 0.99}

// quantileLabels renders without a float formatter so the exposition
// bytes never depend on formatting defaults.
var quantileLabels = [...]string{"0.5", "0.95", "0.99"}

// binQuantile estimates the q-quantile from fixed bins by linear
// interpolation inside the covering bin: find the first bin whose
// cumulative count reaches rank q·count, then place the value
// proportionally between the bin's edges. Pure integer walk plus one
// fixed-order float expression, so equal snapshots render equal bytes.
// Returns NaN when the histogram is empty.
func binQuantile(counts []int64, count int64, lo, width float64, q float64) float64 {
	if count == 0 {
		return math.NaN()
	}
	rank := q * float64(count)
	cum := int64(0)
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) >= rank && c > 0 {
			frac := (rank - float64(prev)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + width*(float64(i)+frac)
		}
	}
	return lo + width*float64(len(counts))
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	kind kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them deterministically: the
// exposition sorts by name, so two registries holding the same
// values produce the same bytes regardless of registration order.
// Registration allocates and is meant for setup time; the returned handles
// are what hot paths touch.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(m *metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want [a-z0-9_]+)", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string, class Class) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, class Class) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a fixed-bin histogram over [lo, hi).
func (r *Registry) Histogram(name, help string, class Class, lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("obs: invalid histogram %q [%v,%v) bins=%d", name, lo, hi, bins))
	}
	h := &Histogram{lo: lo, width: (hi - lo) / float64(bins), counts: make([]int64, bins)}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// sortedMetrics returns the registered metrics in name order.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// appendFloat renders a float the way the exposition does everywhere:
// shortest round-trip representation, deterministic for a given value.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

const headerVirtual = "# determinism: virtual-time (byte-identical across workers and control-loop modes)\n"

// WriteText renders the Prometheus-style text exposition: a determinism
// header, then HELP/TYPE comments plus values in name order. Output is
// byte-stable for equal metric values. The bool argument is ignored; it
// selected the host-time section, which has gone, and stays until the frozen
// benchmark stops passing it (ROADMAP item 7).
func (r *Registry) WriteText(w io.Writer, _ bool) error {
	var b []byte
	ms := r.sortedMetrics()
	if len(ms) > 0 {
		b = append(b, headerVirtual...)
	}
	for _, m := range ms {
		b = append(b, "# HELP "...)
		b = append(b, m.name...)
		b = append(b, ' ')
		b = append(b, m.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, m.name...)
		b = append(b, ' ')
		b = append(b, m.kind.String()...)
		b = append(b, '\n')
		switch m.kind {
		case kindCounter:
			b = append(b, m.name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, m.counter.Value(), 10)
			b = append(b, '\n')
		case kindGauge:
			b = append(b, m.name...)
			b = append(b, ' ')
			b = appendFloat(b, m.gauge.Value())
			b = append(b, '\n')
		case kindHistogram:
			counts, count, sum := m.hist.snapshot()
			cum := int64(0)
			for i, c := range counts {
				cum += c
				b = append(b, m.name...)
				b = append(b, `_bucket{le="`...)
				if i == len(counts)-1 {
					b = append(b, "+Inf"...)
				} else {
					b = appendFloat(b, m.hist.lo+m.hist.width*float64(i+1))
				}
				b = append(b, `"} `...)
				b = strconv.AppendInt(b, cum, 10)
				b = append(b, '\n')
			}
			b = append(b, m.name...)
			b = append(b, "_sum "...)
			b = appendFloat(b, sum)
			b = append(b, '\n')
			b = append(b, m.name...)
			b = append(b, "_count "...)
			b = strconv.AppendInt(b, count, 10)
			b = append(b, '\n')
			if count > 0 {
				for qi, q := range quantiles {
					b = append(b, m.name...)
					b = append(b, `{quantile="`...)
					b = append(b, quantileLabels[qi]...)
					b = append(b, `"} `...)
					b = appendFloat(b, binQuantile(counts, count, m.hist.lo, m.hist.width, q))
					b = append(b, '\n')
				}
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// appendJSONFloat renders a float as JSON, mapping non-finite values (an
// untouched min-clearance gauge is +Inf) to null.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return append(b, "null"...)
	}
	return appendFloat(b, v)
}

// WriteJSON renders the snapshot as a JSON array of metric objects in the
// same name order as WriteText. Non-finite values render as null. The
// hand-rolled encoder keeps key order fixed.
func (r *Registry) WriteJSON(w io.Writer) error {
	b := []byte("[\n")
	first := true
	for _, m := range r.sortedMetrics() {
		if !first {
			b = append(b, ",\n"...)
		}
		first = false
		b = append(b, ` {"name":"`...)
		b = append(b, m.name...)
		b = append(b, `","class":"virtual","kind":"`...)
		b = append(b, m.kind.String()...)
		b = append(b, '"')
		switch m.kind {
		case kindCounter:
			b = append(b, `,"value":`...)
			b = strconv.AppendInt(b, m.counter.Value(), 10)
		case kindGauge:
			b = append(b, `,"value":`...)
			b = appendJSONFloat(b, m.gauge.Value())
		case kindHistogram:
			counts, count, sum := m.hist.snapshot()
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, count, 10)
			b = append(b, `,"sum":`...)
			b = appendJSONFloat(b, sum)
			b = append(b, `,"lo":`...)
			b = appendJSONFloat(b, m.hist.lo)
			b = append(b, `,"width":`...)
			b = appendJSONFloat(b, m.hist.width)
			b = append(b, `,"counts":[`...)
			for i, c := range counts {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, c, 10)
			}
			b = append(b, ']')
			b = append(b, `,"p50":`...)
			b = appendJSONFloat(b, binQuantile(counts, count, m.hist.lo, m.hist.width, 0.50))
			b = append(b, `,"p95":`...)
			b = appendJSONFloat(b, binQuantile(counts, count, m.hist.lo, m.hist.width, 0.95))
			b = append(b, `,"p99":`...)
			b = appendJSONFloat(b, binQuantile(counts, count, m.hist.lo, m.hist.width, 0.99))
		}
		b = append(b, '}')
	}
	b = append(b, "\n]\n"...)
	_, err := w.Write(b)
	return err
}

// WriteFile renders the registry to path: the JSON snapshot for .json
// paths, the Prometheus text exposition otherwise.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WriteText(f, false)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
