package telemetry

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Options sizes a store.
type Options struct {
	// FlushBytes is the memtable size that triggers a flush to a new
	// sorted run. Flush decisions are a pure function of ingested bytes,
	// which is what makes crash-recovery replay land on identical runs.
	FlushBytes int
	// NoCompact disables size-tiered compaction (benchmarks isolate the
	// pure write path with it).
	NoCompact bool
}

// DefaultOptions returns the deployed configuration: 256 KB memtables,
// compaction on.
func DefaultOptions() Options {
	return Options{FlushBytes: 256 << 10}
}

// Stats counts the store's I/O work. Write amplification is
// (WAL + run bytes written) / user bytes; read amplification for a query
// is run bytes read / result bytes.
type Stats struct {
	Events          int64 // events ingested
	UserBytes       int64 // key+payload bytes handed to Ingest
	WALBytes        int64 // bytes appended to the write-ahead log
	RunBytesWritten int64 // bytes written to run files (flush + compaction)
	RunBytesRead    int64 // data-block bytes read back
	BlocksRead      int64 // data blocks fetched
	BloomSkips      int64 // point reads short-circuited by a bloom filter
	Flushes         int64
	Compactions     int64
}

// WriteAmplification returns total storage writes per user byte.
func (s Stats) WriteAmplification() float64 {
	if s.UserBytes == 0 {
		return 0
	}
	return float64(s.WALBytes+s.RunBytesWritten) / float64(s.UserBytes)
}

// Store is the LSM-tree telemetry store rooted at one directory:
// MANIFEST, wal.log, and run-*.sst files. Not safe for concurrent use —
// the fleet ingests from its serial epoch barrier, and queries run
// between ingest batches.
type Store struct {
	dir  string
	opts Options

	mem     *memtable
	runs    []*run // ascending id = oldest first
	nextRun uint64
	seq     uint64 // global event sequence (Key.Seq)
	wal     *walWriter

	stats Stats

	// reused block-path state: the one run writer, Get's cursor, and the
	// cursors scans and compactions borrow
	rw          runWriter
	getCur      blockCursor
	idleCursors []*blockCursor

	// reused ingest scratch
	batchIdx   []int32
	batchEnts  []memEntry
	walBody    []byte
	tierCounts map[int][]int

	// reused ScanByKind scratch: the buffered rows and their payload bytes
	kindRows  []Event
	kindArena []byte
}

const (
	manifestName     = "MANIFEST"
	manifestHeader   = "sovtelemetry manifest v2"
	manifestHeaderV1 = "sovtelemetry manifest v1"
)

// Open loads (or creates) a store in dir, replaying any WAL tail left by
// a crash through the normal ingest path so the recovered state — runs,
// manifest, memtable — is byte-identical to what a non-crashed store
// would hold.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 256 << 10
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		mem:        newMemtable(),
		nextRun:    1,
		tierCounts: make(map[int][]int),
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	// Replay the WAL tail before opening it for append: these batches were
	// ingested but not yet flushed when the store last stopped.
	batches, _, err := readWAL(dir)
	if err != nil {
		return nil, err
	}
	s.wal, err = openWAL(dir)
	if err != nil {
		return nil, err
	}
	lastFlushed := -1
	for i, body := range batches {
		events, err := decodeBatchBody(body)
		if err != nil {
			return nil, fmt.Errorf("telemetry: wal replay: %w", err)
		}
		for _, e := range events {
			if uint64(e.Key.Seq) >= s.seq {
				s.seq = uint64(e.Key.Seq) + 1
			}
		}
		flushesBefore := s.stats.Flushes
		if err := s.apply(events); err != nil {
			return nil, err
		}
		if s.stats.Flushes != flushesBefore {
			lastFlushed = i
		}
	}
	// A flush mid-replay truncated the log; re-secure the batches that are
	// still only in the memtable so a second crash replays them too.
	if lastFlushed >= 0 {
		if err := s.wal.reset(); err != nil {
			return nil, err
		}
		for _, body := range batches[lastFlushed+1:] {
			if err := s.wal.appendBatch(body); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Ingest assigns sequence numbers, logs the batch to the WAL, and applies
// it to the memtable (flushing and compacting when thresholds trip).
// Events must carry Vehicle, TMs, Kind, and Payload; Seq is assigned here
// in submission order.
func (s *Store) Ingest(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	for i := range events {
		events[i].Key.Seq = uint32(s.seq)
		s.seq++
		s.stats.Events++
		s.stats.UserBytes += int64(KeySize + len(events[i].Payload))
	}
	s.walBody = appendBatchBody(s.walBody[:0], events)
	if err := s.wal.appendBatch(s.walBody); err != nil {
		return err
	}
	s.stats.WALBytes += int64(8 + len(s.walBody))
	return s.apply(events)
}

// apply sorts a batch into key order and folds it into the memtable, then
// runs the flush/compaction policy. Keys are unique (Ingest assigns Seq),
// so the order is total.
func (s *Store) apply(events []Event) error {
	idx := s.batchIdx[:0]
	for i := range events {
		idx = append(idx, int32(i))
	}
	s.batchIdx = idx
	slices.SortFunc(idx, func(a, b int32) int {
		ka, kb := events[a].Key, events[b].Key
		switch {
		case ka.Less(kb):
			return -1
		case kb.Less(ka):
			return 1
		}
		return 0
	})
	// The memtable folds the sorted batch in with one linear pass.
	ents := s.batchEnts[:0]
	for _, i := range idx {
		e := events[i]
		ents = append(ents, s.mem.put(e.Key, e.Payload))
	}
	s.batchEnts = ents[:0]
	s.mem.mergeBatch(ents)
	if s.mem.sizeBytes() >= s.opts.FlushBytes {
		if err := s.flush(); err != nil {
			return err
		}
	}
	return nil
}

// flush writes the memtable as a new level-0 run, durably records it in
// the manifest, resets the WAL, and triggers compaction.
func (s *Store) flush() error {
	if s.mem.len() == 0 {
		return nil
	}
	id := s.nextRun
	s.nextRun++
	w := &s.rw
	if err := w.begin(runPath(s.dir, id), s.mem.len()); err != nil {
		return err
	}
	for _, e := range s.mem.entries {
		if err := w.add(e.key, s.mem.arena[e.off:e.off+e.n]); err != nil {
			w.abort()
			return err
		}
	}
	meta, err := w.finish()
	if err != nil {
		return err
	}
	meta.id = id
	meta.tier = tierOf(meta.bytes)
	s.stats.RunBytesWritten += meta.bytes
	s.stats.Flushes++
	r, err := openRun(runPath(s.dir, id), meta)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, r)
	s.mem.reset()
	if err := s.writeManifest(); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	if !s.opts.NoCompact {
		return s.compact()
	}
	return nil
}

// Size-tiered compaction: runs are bucketed by size tier (quadrupling
// widths); when a tier accumulates tierFanout runs, the oldest tierFanout
// merge into one run a tier up. Write amplification stays O(log n) per
// byte instead of the O(n) a single sorted level would cost.

const (
	tierBase   = 16 << 10
	tierFanout = 4
)

// tierOf buckets a run size.
func tierOf(bytes int64) int {
	t := 0
	for x := bytes / tierBase; x >= tierFanout; x /= tierFanout {
		t++
	}
	return t
}

// compact repeatedly merges the lowest overflowing tier until no tier
// holds tierFanout runs.
func (s *Store) compact() error {
	for {
		clear(s.tierCounts)
		maxTier := 0
		for i, r := range s.runs {
			s.tierCounts[r.meta.tier] = append(s.tierCounts[r.meta.tier], i)
			if r.meta.tier > maxTier {
				maxTier = r.meta.tier
			}
		}
		victim := -1
		for t := 0; t <= maxTier; t++ {
			if len(s.tierCounts[t]) >= tierFanout {
				victim = t
				break
			}
		}
		if victim < 0 {
			return nil
		}
		// Oldest tierFanout runs of the tier (runs are id-ordered).
		picks := s.tierCounts[victim][:tierFanout]
		if err := s.mergeRunsAt(picks); err != nil {
			return err
		}
	}
}

// mergeRunsAt merges the runs at the given positions (ascending) into a
// new run, deletes the inputs, and rewrites the manifest.
func (s *Store) mergeRunsAt(positions []int) error {
	victims := make([]*run, len(positions))
	var total uint64
	for i, p := range positions {
		victims[i] = s.runs[p]
		total += s.runs[p].meta.entries
	}
	id := s.nextRun
	s.nextRun++
	w := &s.rw
	if err := w.begin(runPath(s.dir, id), int(total)); err != nil {
		return err
	}
	if err := s.mergeRuns(victims, w); err != nil {
		w.abort()
		return err
	}
	meta, err := w.finish()
	if err != nil {
		return err
	}
	meta.id = id
	meta.tier = tierOf(meta.bytes)
	s.stats.RunBytesWritten += meta.bytes
	s.stats.Compactions++

	// Replace victims with the merged run, keeping id order.
	drop := make(map[int]bool, len(positions))
	for _, p := range positions {
		drop[p] = true
	}
	kept := s.runs[:0]
	for i, r := range s.runs {
		if drop[i] {
			r.close()
			os.Remove(runPath(s.dir, r.meta.id))
			continue
		}
		kept = append(kept, r)
	}
	nr, err := openRun(runPath(s.dir, id), meta)
	if err != nil {
		return err
	}
	s.runs = append(kept, nr)
	sort.Slice(s.runs, func(i, j int) bool { return s.runs[i].meta.id < s.runs[j].meta.id })
	return s.writeManifest()
}

// Flush forces the memtable to disk (used by Close and checkpoints).
func (s *Store) Flush() error { return s.flush() }

// Close flushes the memtable, rewrites the manifest, and closes every
// file. The WAL is empty after a clean close.
func (s *Store) Close() error {
	var first error
	if err := s.flush(); err != nil {
		first = err
	}
	if err := s.writeManifest(); err != nil && first == nil {
		first = err
	}
	if err := s.wal.close(); err != nil && first == nil {
		first = err
	}
	for _, r := range s.runs {
		if err := r.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns a copy of the I/O counters.
func (s *Store) Stats() Stats { return s.stats }

// Runs reports the live run count and total run bytes.
func (s *Store) Runs() (count int, bytes int64) {
	for _, r := range s.runs {
		bytes += r.meta.bytes
	}
	return len(s.runs), bytes
}

// borrowCursor hands out an idle block cursor, its buffers already grown,
// or a new one. Borrowers append theirs back to idleCursors when done.
func (s *Store) borrowCursor() *blockCursor {
	if n := len(s.idleCursors); n > 0 {
		c := s.idleCursors[n-1]
		s.idleCursors = s.idleCursors[:n-1]
		return c
	}
	return new(blockCursor)
}

// Get returns the payload for an exact key: memtable first, then runs
// newest-to-oldest with bloom-filter short-circuiting. The payload aliases
// a store-owned buffer and is valid until the next call on the Store; copy
// to retain.
func (s *Store) Get(k Key) ([]byte, bool, error) {
	if p, ok := s.mem.get(k); ok {
		return p, true, nil
	}
	hash := hashKey(k)
	for i := len(s.runs) - 1; i >= 0; i-- {
		p, ok, err := s.runs[i].get(k, hash, &s.getCur, &s.stats)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return p, true, nil
		}
	}
	return nil, false, nil
}

// manifest serialization — line-oriented text, atomically replaced, byte-
// identical for a given run set.

func (s *Store) writeManifest() error {
	var b []byte
	b = append(b, manifestHeader+"\n"...)
	b = append(b, "next-run "...)
	b = strconv.AppendUint(b, s.nextRun, 10)
	b = append(b, "\nseq "...)
	b = strconv.AppendUint(b, s.seq, 10)
	b = append(b, '\n')
	for _, r := range s.runs {
		m := r.meta
		b = append(b, "run "...)
		b = appendUintPad(b, m.id, 6)
		b = append(b, " tier "...)
		b = strconv.AppendInt(b, int64(m.tier), 10)
		b = append(b, " entries "...)
		b = strconv.AppendUint(b, m.entries, 10)
		b = append(b, " bytes "...)
		b = strconv.AppendInt(b, m.bytes, 10)
		b = append(b, " min "...)
		b = appendKeyHex(b, m.minKey)
		b = append(b, " max "...)
		b = appendKeyHex(b, m.maxKey)
		b = append(b, " crc "...)
		b = appendUintHex(b, uint64(m.crc), 8)
		b = append(b, '\n')
	}
	b = append(b, "end\n"...)
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, manifestName))
}

func (s *Store) loadManifest() error {
	f, err := os.Open(filepath.Join(s.dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != manifestHeader {
		if sc.Text() == manifestHeaderV1 {
			return errors.New("telemetry: store is format v1; this build reads and writes only v2")
		}
		return errors.New("telemetry: bad manifest header")
	}
	sawEnd := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "next-run", "seq":
			if len(fields) != 2 {
				return fmt.Errorf("telemetry: bad manifest line %q", sc.Text())
			}
			var v uint64
			v, err = strconv.ParseUint(fields[1], 10, 64)
			if fields[0] == "seq" {
				s.seq = v
			} else {
				s.nextRun = v
			}
		case "run":
			if len(fields) != 14 {
				return fmt.Errorf("telemetry: bad manifest run line %q", sc.Text())
			}
			var m runMeta
			m.id, err = strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return err
			}
			tier, err := strconv.Atoi(fields[3])
			if err != nil {
				return err
			}
			m.tier = tier
			m.entries, err = strconv.ParseUint(fields[5], 10, 64)
			if err != nil {
				return err
			}
			m.bytes, err = strconv.ParseInt(fields[7], 10, 64)
			if err != nil {
				return err
			}
			if m.minKey, err = parseKeyHex(fields[9]); err != nil {
				return err
			}
			if m.maxKey, err = parseKeyHex(fields[11]); err != nil {
				return err
			}
			crc, err := strconv.ParseUint(fields[13], 16, 32)
			if err != nil {
				return err
			}
			m.crc = uint32(crc)
			r, err := openRun(runPath(s.dir, m.id), m)
			if err != nil {
				return err
			}
			s.runs = append(s.runs, r)
		case "end":
			sawEnd = true
		default:
			return fmt.Errorf("telemetry: unknown manifest line %q", sc.Text())
		}
		if err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawEnd {
		return errors.New("telemetry: truncated manifest")
	}
	sort.Slice(s.runs, func(i, j int) bool { return s.runs[i].meta.id < s.runs[j].meta.id })
	return nil
}

// ManifestBytes returns the manifest's current on-disk contents (the
// determinism tests diff it across twin stores).
func (s *Store) ManifestBytes() ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, manifestName))
}

const hexDigits = "0123456789abcdef"

func appendUintPad(b []byte, v uint64, width int) []byte {
	var tmp [20]byte
	n := len(strconv.AppendUint(tmp[:0], v, 10))
	for i := n; i < width; i++ {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, v, 10)
}

func appendUintHex(b []byte, v uint64, width int) []byte {
	for i := width - 1; i >= 0; i-- {
		b = append(b, hexDigits[(v>>(4*i))&0xf])
	}
	return b
}

func appendKeyHex(b []byte, k Key) []byte {
	var kb [KeySize]byte
	enc := appendKey(kb[:0], k)
	for _, c := range enc {
		b = append(b, hexDigits[c>>4], hexDigits[c&0xf])
	}
	return b
}

func parseKeyHex(s string) (Key, error) {
	var kb [KeySize]byte
	if len(s) == 2*KeySize { // hex.Decode panics on a short destination
		if _, err := hex.Decode(kb[:], []byte(s)); err == nil {
			return decodeKey(kb[:]), nil
		}
	}
	return Key{}, fmt.Errorf("telemetry: bad manifest key %q", s)
}
