package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
)

// Query selects a rectangle of the telemetry space: a vehicle range, a
// virtual-time window, and optionally a kind set. The zero value selects
// everything.
type Query struct {
	VehicleMin uint32
	VehicleMax uint32 // 0 means "no upper bound"
	TMinMs     uint64
	TMaxMs     uint64 // 0 means "no upper bound"
	Kinds      []Kind
}

// normalize resolves the zero-value defaults.
func (q Query) normalize() Query {
	if q.VehicleMax == 0 {
		q.VehicleMax = math.MaxUint32
	}
	if q.TMaxMs == 0 {
		q.TMaxMs = math.MaxUint64
	}
	sort.Slice(q.Kinds, func(i, j int) bool { return q.Kinds[i] < q.Kinds[j] })
	return q
}

// matchKind reports whether k passes the kind filter.
func (q Query) matchKind(k Kind) bool {
	if len(q.Kinds) == 0 {
		return true
	}
	for _, want := range q.Kinds {
		if k == want {
			return true
		}
	}
	return false
}

// Scan streams every matching event in primary (vehicle-major, then time)
// order: a k-way merge of the memtable and every run, each source reading
// only the blocks its index says overlap the query rectangle. Payload
// slices alias internal buffers — copy to retain. Returning false from fn
// stops the scan.
func (s *Store) Scan(q Query, fn func(Event) bool) error {
	q = q.normalize()
	lo := Key{Vehicle: q.VehicleMin, TMs: q.TMinMs}
	hi := keyMax
	hi.Vehicle, hi.TMs = q.VehicleMax, q.TMaxMs

	sources := make([]*scanCursor, 0, len(s.runs)+1)
	// The block cursors go back to the store for the next scan; a Scan or
	// Get made from inside fn borrows others.
	defer func() {
		for _, c := range sources {
			if c.run != nil {
				s.idleCursors = append(s.idleCursors, c.run)
			}
		}
	}()
	for _, r := range s.runs {
		if hi.Less(r.meta.minKey) || r.meta.maxKey.Less(lo) {
			continue
		}
		c := &scanCursor{hi: hi, run: s.borrowCursor()}
		sources = append(sources, c)
		if err := c.seekRun(r, lo, &s.stats); err != nil {
			return err
		}
	}
	sources = append(sources, newMemCursor(s.mem, lo, hi))

	for {
		best := -1
		for i, c := range sources {
			if c.done {
				continue
			}
			if best < 0 || c.key.Less(sources[best].key) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		c := sources[best]
		k := c.key
		emit := k.TMs >= q.TMinMs && k.TMs <= q.TMaxMs && q.matchKind(k.Kind)
		if emit && !fn(Event{Key: k, Payload: c.val}) {
			return nil
		}
		if err := c.next(); err != nil {
			return err
		}
	}
}

// ScanByKind answers kind-first queries through the B+-tree secondary
// index: leaves are walked in (kind, time, vehicle) order over exactly the
// requested window and each hit is resolved with a bloom-guarded point
// read. Events stream in time-major order per kind — the triage ordering —
// rather than the primary vehicle-major order.
func (s *Store) ScanByKind(q Query, fn func(Event) bool) error {
	q = q.normalize()
	if len(q.Kinds) == 0 {
		for k := Kind(0); k < numKinds; k++ {
			q.Kinds = append(q.Kinds, k)
		}
	}
	if err := s.ensureIndex(); err != nil {
		return err
	}
	for _, kind := range q.Kinds {
		lo := skey{kind: kind, tMs: q.TMinMs, vehicle: q.VehicleMin}
		hi := skey{kind: kind, tMs: q.TMaxMs, vehicle: math.MaxUint32, seq: math.MaxUint32}
		stop := false
		var ierr error
		s.idx.scanRange(lo, hi, func(sk skey) bool {
			if sk.vehicle < q.VehicleMin || sk.vehicle > q.VehicleMax {
				return true
			}
			payload, ok, err := s.Get(sk.primary())
			if err != nil {
				ierr, stop = err, true
				return false
			}
			if !ok {
				// Index entries always resolve; a miss means corruption.
				return true
			}
			if !fn(Event{Key: sk.primary(), Payload: payload}) {
				stop = true
				return false
			}
			return true
		})
		if ierr != nil {
			return ierr
		}
		if stop {
			return nil
		}
	}
	return nil
}

// ensureIndex builds the secondary index on first use by replaying the
// primary space; afterwards ingest keeps it current incrementally.
func (s *Store) ensureIndex() error {
	if s.idx != nil {
		return nil
	}
	t := newBPTree()
	err := s.Scan(Query{}, func(e Event) bool {
		t.insert(skeyOf(e.Key))
		return true
	})
	if err != nil {
		return err
	}
	s.idx = t
	return nil
}

// IndexSize reports the secondary index entry count and tree height
// (0, 0 before the index is built).
func (s *Store) IndexSize() (entries, height int) {
	if s.idx == nil {
		return 0, 0
	}
	return s.idx.size, s.idx.height()
}

// scanCursor is one merge source: the memtable or one run.
type scanCursor struct {
	key  Key
	val  []byte
	done bool
	hi   Key

	// memtable source
	mem *memtable
	mi  int

	// run source
	run *blockCursor
}

func newMemCursor(m *memtable, lo, hi Key) *scanCursor {
	i := sort.Search(len(m.entries), func(i int) bool { return !m.entries[i].key.Less(lo) })
	c := &scanCursor{mem: m, mi: i, hi: hi}
	c.advanceMem()
	return c
}

func (c *scanCursor) advanceMem() {
	if c.mi >= len(c.mem.entries) {
		c.done = true
		return
	}
	e := c.mem.entries[c.mi]
	if c.hi.Less(e.key) {
		c.done = true
		return
	}
	c.key = e.key
	c.val = c.mem.arena[e.off : e.off+e.n]
	c.mi++
}

// seekRun points a run source at r's first key >= lo, walking only the
// blocks the index says can hold keys in [lo, c.hi].
func (c *scanCursor) seekRun(r *run, lo Key, st *Stats) error {
	first := r.blockFor(lo)
	if first < 0 {
		first = 0
	}
	c.run.seek(r, st, first, r.blockFor(c.hi))
	for {
		if err := c.next(); err != nil {
			return err
		}
		if c.done || !c.key.Less(lo) {
			return nil
		}
	}
}

func (c *scanCursor) next() error {
	if c.mem != nil {
		c.advanceMem()
		return nil
	}
	ok, err := c.run.next()
	if err != nil {
		c.done = true
		return c.run.fail(err)
	}
	if !ok || c.hi.Less(c.run.key) {
		c.done = true
		return nil
	}
	c.key, c.val = c.run.key, c.run.val
	return nil
}

// Count runs a query and returns the matching event count (using the
// secondary index when the query names kinds).
func (s *Store) Count(q Query) (int64, error) {
	var n int64
	scan := s.Scan
	if len(q.Kinds) > 0 {
		scan = s.ScanByKind
	}
	err := scan(q, func(Event) bool { n++; return true })
	return n, err
}

// AppendRowJSON renders one event as a compact JSON line (without the
// trailing newline): stable field order, payload embedded raw when it is
// itself valid JSON, else as a JSON string.
func AppendRowJSON(b []byte, e Event) []byte {
	b = append(b, `{"vehicle":`...)
	if e.Key.Vehicle == FleetVehicle {
		b = append(b, `"fleet"`...)
	} else {
		b = strconv.AppendUint(b, uint64(e.Key.Vehicle), 10)
	}
	b = append(b, `,"t_ms":`...)
	b = strconv.AppendUint(b, e.Key.TMs, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Key.Kind.String()...)
	b = append(b, `","seq":`...)
	b = strconv.AppendUint(b, uint64(e.Key.Seq), 10)
	b = append(b, `,"payload":`...)
	if len(e.Payload) > 0 && json.Valid(e.Payload) {
		b = append(b, e.Payload...)
	} else {
		qb, _ := json.Marshal(string(e.Payload))
		b = append(b, qb...)
	}
	return append(b, '}')
}

// WriteJSONL streams a query's rows as JSON lines. Kind-filtered queries
// go through the secondary index (time-major order); unfiltered queries
// scan the primary (vehicle-major order).
func (s *Store) WriteJSONL(w io.Writer, q Query) (int64, error) {
	var buf []byte
	var n int64
	scan := s.Scan
	if len(q.Kinds) > 0 {
		scan = s.ScanByKind
	}
	var werr error
	err := scan(q, func(e Event) bool {
		buf = AppendRowJSON(buf[:0], e)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			werr = err
			return false
		}
		n++
		return true
	})
	if err == nil {
		err = werr
	}
	return n, err
}
