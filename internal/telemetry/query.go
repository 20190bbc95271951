package telemetry

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Query selects a rectangle of the telemetry space: a vehicle range, a
// virtual-time window, and optionally a kind set. The zero value selects
// everything.
type Query struct {
	VehicleMin uint32
	VehicleMax uint32 // 0 means "no upper bound" unless VehicleBounded is set
	// VehicleBounded says VehicleMax is a bound even when it is 0: vehicle 0
	// is a real vehicle, and [0, 0] is otherwise inexpressible.
	VehicleBounded bool
	TMinMs         uint64
	TMaxMs         uint64 // 0 means "no upper bound"
	Kinds          []Kind
}

// normalize resolves the zero-value defaults.
func (q Query) normalize() Query {
	if q.VehicleMax == 0 && !q.VehicleBounded {
		q.VehicleMax = math.MaxUint32
	}
	if q.TMaxMs == 0 {
		q.TMaxMs = math.MaxUint64
	}
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
// order: a k-way merge of every committed run, the frozen memtable a writer
// job may be writing and the active memtable, over the query rectangle's key
// range. Payload slices alias internal buffers — copy to retain. Returning
// false from fn stops the scan.
func (s *Store) Scan(q Query, fn func(Event) bool) error {
	q = q.normalize()
	lo := Key{Vehicle: q.VehicleMin, TMs: q.TMinMs}
	hi := keyMax
	hi.Vehicle, hi.TMs = q.VehicleMax, q.TMaxMs
	srcs, err := sources(s.runs, &s.cursors, &s.stats, lo, hi)
	defer s.cursors.release(srcs)
	if err != nil {
		return err
	}
	for _, m := range [...]*memtable{s.frozen, s.mem} {
		if m != nil {
			srcs = append(srcs, newMemCursor(m, lo, hi))
		}
	}
	for {
		best, err := least(srcs)
		if best < 0 || err != nil {
			return err
		}
		c := srcs[best]
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

// sources opens the run sources of Scan and compaction: one per run of runs
// (oldest first) that can hold keys in [lo, hi], reading only the blocks its
// index says overlap them through a cursor from pool and charging st. Room
// is left for Scan's two memtable sources. The caller hands them back to
// pool when done, also after an error.
func sources(runs []*run, pool *cursorPool, st *Stats, lo, hi Key) ([]*scanCursor, error) {
	srcs := make([]*scanCursor, 0, len(runs)+2)
	for _, r := range runs {
		if hi.Less(r.meta.minKey) || r.meta.maxKey.Less(lo) {
			continue
		}
		c := &scanCursor{hi: hi, run: pool.borrow()}
		srcs = append(srcs, c)
		if err := c.seekRun(r, lo, st); err != nil {
			return srcs, err
		}
	}
	return srcs, nil
}

// cursorPool holds idle block cursors, their buffers already grown. The
// store's reads draw on one and the writer job's merges on another.
type cursorPool []*blockCursor

// borrow hands out an idle cursor or a new one.
func (p *cursorPool) borrow() *blockCursor {
	if n := len(*p); n > 0 {
		c := (*p)[n-1]
		*p = (*p)[:n-1]
		return c
	}
	return new(blockCursor)
}

// release gives srcs' block cursors back for the next merge; a Scan or Get
// made from inside a Scan's fn borrows others.
func (p *cursorPool) release(srcs []*scanCursor) {
	for _, c := range srcs {
		if c.run != nil {
			*p = append(*p, c.run)
		}
	}
}

// least returns the source holding the least key, or -1 once every source
// is done. Sources go oldest first, so of equal keys the newest wins and
// the older ones step past theirs (Seq keeps keys unique, so none do).
func least(srcs []*scanCursor) (int, error) {
	best := -1
	for i, c := range srcs {
		if c.done {
			continue
		}
		if best >= 0 {
			b := srcs[best]
			if b.key.Less(c.key) {
				continue
			}
			if b.key == c.key {
				if err := b.next(); err != nil {
					return -1, err
				}
			}
		}
		best = i
	}
	return best, nil
}

// ScanByKind streams a query's events in triage order — kind, then time,
// then vehicle, then sequence — rather than the primary vehicle-major
// order: one primary Scan over the query rectangle copies the matching rows
// into store-owned scratch, which is sorted and replayed. The buffer is
// bounded by the result, not by the store. Payloads are valid until the
// next call on the Store; returning false from fn stops the stream.
func (s *Store) ScanByKind(q Query, fn func(Event) bool) error {
	// A ScanByKind made from inside fn grows its own buffers.
	rows, arena := s.kindRows[:0], s.kindArena[:0]
	s.kindRows, s.kindArena = nil, nil
	defer func() { s.kindRows, s.kindArena = rows, arena }()

	err := s.Scan(q, func(e Event) bool {
		// append may move the arena; a row taken before that keeps the old
		// array, which already holds its bytes.
		off := len(arena)
		arena = append(arena, e.Payload...)
		rows = append(rows, Event{Key: e.Key, Payload: arena[off:len(arena):len(arena)]})
		return true
	})
	if err != nil {
		return err
	}
	slices.SortFunc(rows, func(a, b Event) int {
		return cmp.Or(
			cmp.Compare(a.Key.Kind, b.Key.Kind),
			cmp.Compare(a.Key.TMs, b.Key.TMs),
			cmp.Compare(a.Key.Vehicle, b.Key.Vehicle),
			cmp.Compare(a.Key.Seq, b.Key.Seq),
		)
	})
	for _, e := range rows {
		if !fn(e) {
			break
		}
	}
	return nil
}

// IndexSize reports (0, 0): the store has no secondary index.
//
// Deprecated: it stays only because benchmark/storeload.go, frozen for the
// PR that removed the index, calls it; ROADMAP item 7 records the
// benchmark-only follow-up that drops it with telemetry.index_entries.
func (s *Store) IndexSize() (entries, height int) { return 0, 0 }

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

// Count runs a query and returns the matching event count.
func (s *Store) Count(q Query) (int64, error) {
	var n int64
	err := s.Scan(q, func(Event) bool { n++; return true })
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
// come in ScanByKind's time-major order per kind; unfiltered queries in
// the primary vehicle-major order.
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
