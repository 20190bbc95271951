package telemetry

import "sort"

// memEntry locates one event inside the memtable arena.
type memEntry struct {
	key Key
	off int32
	n   int32
}

// memtable is the mutable head of the LSM tree: payload bytes live in one
// append-only arena, order lives in a sorted entry slice. Batches arrive
// pre-sorted from the shard phase and are folded in with a single linear
// merge, so steady-state ingest does per-event O(1) amortized work and the
// arena/entry slices are the only growth points.
type memtable struct {
	arena   []byte
	entries []memEntry
	scratch []memEntry // reused merge target
}

// newMemtable sizes a memtable once for a store that flushes at flushBytes:
// the arena takes the payloads of a full memtable and the batch that carries
// it past the threshold, and the entry slices an entry per 64 bytes of it.
// A store keeps two and swaps them at every flush, so neither grows again.
func newMemtable(flushBytes int) *memtable {
	return &memtable{
		arena:   make([]byte, 0, flushBytes+flushBytes/4),
		entries: make([]memEntry, 0, flushBytes/64),
		scratch: make([]memEntry, 0, flushBytes/64),
	}
}

// sizeBytes is the flush-accounting size: payload bytes plus fixed key
// overhead per entry, mirroring what the run file will serialize.
func (m *memtable) sizeBytes() int {
	return len(m.arena) + len(m.entries)*(KeySize+2)
}

func (m *memtable) len() int { return len(m.entries) }

// put stores one event's payload in the arena and returns its entry.
func (m *memtable) put(k Key, payload []byte) memEntry {
	off := int32(len(m.arena))
	m.arena = append(m.arena, payload...)
	return memEntry{key: k, off: off, n: int32(len(payload))}
}

// mergeBatch folds a sorted batch of entries (already put into the arena)
// into the sorted entry slice with one linear pass. Duplicate keys cannot
// occur: the ingest front end disambiguates with Key.Seq.
func (m *memtable) mergeBatch(batch []memEntry) {
	if len(batch) == 0 {
		return
	}
	if len(m.entries) == 0 {
		m.entries = append(m.entries[:0], batch...)
		return
	}
	// Common fast path: the batch starts after the current tail (time moves
	// forward within one vehicle), append without merging.
	if m.entries[len(m.entries)-1].key.Less(batch[0].key) {
		m.entries = append(m.entries, batch...)
		return
	}
	out := m.scratch[:0]
	i, j := 0, 0
	for i < len(m.entries) && j < len(batch) {
		if m.entries[i].key.Less(batch[j].key) {
			out = append(out, m.entries[i])
			i++
		} else {
			out = append(out, batch[j])
			j++
		}
	}
	out = append(out, m.entries[i:]...)
	out = append(out, batch[j:]...)
	m.scratch = m.entries // recycle the old slice as the next merge target
	m.entries = out
}

// get returns the payload for an exact key.
func (m *memtable) get(k Key) ([]byte, bool) {
	i := sort.Search(len(m.entries), func(i int) bool {
		return !m.entries[i].key.Less(k)
	})
	if i < len(m.entries) && m.entries[i].key == k {
		e := m.entries[i]
		return m.arena[e.off : e.off+e.n], true
	}
	return nil, false
}

// reset clears the memtable for reuse after a flush, keeping capacity.
func (m *memtable) reset() {
	m.arena = m.arena[:0]
	m.entries = m.entries[:0]
}
