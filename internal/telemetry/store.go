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

// add adds o's counts to s.
func (s *Stats) add(o Stats) {
	s.Events += o.Events
	s.UserBytes += o.UserBytes
	s.WALBytes += o.WALBytes
	s.RunBytesWritten += o.RunBytesWritten
	s.RunBytesRead += o.RunBytesRead
	s.BlocksRead += o.BlocksRead
	s.BloomSkips += o.BloomSkips
	s.Flushes += o.Flushes
	s.Compactions += o.Compactions
}

// Store is the LSM-tree telemetry store rooted at one directory:
// MANIFEST, wal.log (and wal.prev while a flush is in flight), and
// run-*.sst files. Not safe for concurrent use — the fleet ingests from its
// serial epoch barrier, and queries run between ingest batches. Its own
// goroutines are the writer job (job.go), at most one at a time, and the
// coder that job starts (runWriter).
type Store struct {
	dir  string
	opts Options

	mem     *memtable // the active memtable
	frozen  *memtable // the memtable a writer job writes, until the join adopts its run
	spare   *memtable // the next active memtable, made at the first freeze
	runs    []*run    // committed runs, ascending id = oldest first
	nextRun uint64
	seq     uint64 // global event sequence (Key.Seq)
	wal     walWriter

	stats Stats
	err   error // a failed job's or WAL rotation's: every later Ingest, Flush and Close returns it

	// the writer job: w is its state, running says it has started and not
	// been joined, and done carries its result (buffered, so a job ends
	// whether or not anything joins it)
	w       writer
	running bool
	done    chan error

	// reused read state: Get's cursor and the cursors scans borrow
	getCur  blockCursor
	cursors cursorPool

	// reused ingest scratch
	batchIdx  []int32
	batchEnts []memEntry
	walBody   []byte

	// reused ScanByKind scratch: the buffered rows and their payload bytes
	kindRows  []Event
	kindArena []byte
}

const (
	manifestName     = "MANIFEST"
	manifestHeader   = "sovtelemetry manifest v2"
	manifestHeaderV1 = "sovtelemetry manifest v1"
)

// Exists reports whether dir holds a store (a MANIFEST or a WAL), so a
// reader can refuse a directory that Open would create a store in. A stat
// error other than "not exist" counts as a store, for Open to report.
func Exists(dir string) bool {
	for _, name := range []string{manifestName, walName, walPrevName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			return true
		}
	}
	return false
}

// Open loads (or creates) a store in dir, replaying any WAL left by a crash
// through the normal ingest path so the recovered state — runs, manifest,
// memtable — is byte-identical to what a non-crashed store would hold. A
// run file the MANIFEST does not name is a crashed job's output, or a
// compaction's input, and is deleted.
func Open(dir string, opts Options) (_ *Store, err error) {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 256 << 10
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		mem:     newMemtable(opts.FlushBytes),
		nextRun: 1,
		done:    make(chan error, 1),
		w:       writer{dir: dir, tierCounts: make(map[int][]int)},
	}
	defer func() {
		if err != nil {
			s.join()
			for _, r := range s.runs {
				r.close()
			}
		}
	}()
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	// Read the WAL before deleting anything: a log that fails to read
	// leaves the store as it was found.
	batches, prev, torn, err := readWAL(dir)
	if err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.sst"))
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if !slices.ContainsFunc(s.runs, func(r *run) bool { return runPath(dir, r.meta.id) == p }) {
			if err := os.Remove(p); err != nil {
				return nil, err
			}
		}
	}
	// Replay the WAL: these batches were ingested but not committed in a run
	// when the store last stopped. A batch below the running seq is in a run
	// already (the MANIFEST's seq bounds what its runs hold) or was replayed
	// from wal.prev, and is skipped.
	var kept [][]byte // the replayed batches that only the memtable holds
	for _, body := range batches {
		events, err := decodeBatchBody(body)
		if err != nil {
			return nil, fmt.Errorf("telemetry: wal replay: %w", err)
		}
		// Seq is s.seq's low 32 bits, so both compare in serial-number order.
		if len(events) > 0 && int32(uint32(s.seq)-events[0].Key.Seq) > 0 {
			continue
		}
		for _, e := range events {
			if d := e.Key.Seq - uint32(s.seq); int32(d) >= 0 {
				s.seq += uint64(d) + 1
			}
		}
		kept = append(kept, body)
		if s.apply(events) {
			if err := s.join(); err != nil {
				return nil, err
			}
			s.freeze(false)
			kept = kept[:0]
		}
	}
	if err := s.join(); err != nil {
		return nil, err
	}
	// Rewrite the log to the batches still only in the memtable, so a
	// second crash replays them too, when anything else is in it.
	if prev || torn || len(kept) < len(batches) {
		if err := rewriteWAL(dir, kept); err != nil {
			return nil, err
		}
	}
	if err := s.wal.open(dir); err != nil {
		return nil, err
	}
	return s, nil
}

// Ingest assigns sequence numbers, logs the batch to the WAL, and applies
// it to the memtable, handing a full memtable to a writer job. Events must
// carry Vehicle, TMs, Kind, and Payload; Seq is assigned here in submission
// order.
func (s *Store) Ingest(events []Event) error {
	if s.err != nil {
		return s.err
	}
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
	if s.apply(events) {
		return s.rotate()
	}
	return nil
}

// apply sorts a batch into key order and folds it into the memtable, and
// reports whether the memtable has reached FlushBytes. Keys are unique
// (Ingest assigns Seq), so the order is total.
func (s *Store) apply(events []Event) (full bool) {
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
	return s.mem.sizeBytes() >= s.opts.FlushBytes
}

// rotate joins the running job, then freezes the active memtable: wal.log,
// which holds exactly its batches, becomes wal.prev for the new job to
// remove once it has committed them, and a fresh wal.log takes the batches
// after them. A failure to rename or reopen the log is the store's error
// from then on.
func (s *Store) rotate() error {
	if err := s.join(); err != nil {
		return err
	}
	err := s.wal.close()
	if err == nil {
		err = os.Rename(filepath.Join(s.dir, walName), filepath.Join(s.dir, walPrevName))
	}
	if err == nil {
		err = s.wal.open(s.dir)
	}
	if err != nil {
		s.err = fmt.Errorf("telemetry: wal rotation: %w", err)
		return s.err
	}
	s.freeze(true)
	return nil
}

// freeze hands the active memtable to a new writer job, with the run list,
// run ids and seq bound it commits against, and swaps in the spare. No job
// may be running.
func (s *Store) freeze(retireWAL bool) {
	if s.spare == nil {
		s.spare = newMemtable(s.opts.FlushBytes)
	}
	w := &s.w
	w.mem, w.seq, w.retireWAL, w.compact = s.mem, s.seq, retireWAL, !s.opts.NoCompact
	w.runs = append(w.runs[:0], s.runs...)
	w.nextRun = s.nextRun
	w.created, w.victims, w.stats = w.created[:0], w.victims[:0], Stats{}
	s.frozen, s.mem, s.spare = s.mem, s.spare, nil
	s.running = true
	go func() { s.done <- w.run() }()
}

// join waits for the running job, if any, and adopts its result: its run
// list, run ids and counts; it closes the runs the job's merges replaced
// and keeps the frozen memtable as the next spare. A failed job leaves the
// committed state as it was, its frozen memtable readable, and its error
// the store's.
func (s *Store) join() error {
	if !s.running {
		return s.err
	}
	s.running = false
	if err := <-s.done; err != nil {
		s.err = err
		return err
	}
	w := &s.w
	s.runs, w.runs = w.runs, s.runs
	s.nextRun = w.nextRun
	s.stats.add(w.stats)
	for _, r := range w.victims {
		r.close()
	}
	s.frozen.reset()
	s.spare, s.frozen = s.frozen, nil
	return nil
}

// Flush forces the memtable to disk (used by Close and checkpoints): it
// starts a job for a non-empty memtable and joins it.
func (s *Store) Flush() error {
	if s.mem.len() > 0 {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	return s.join()
}

// Close flushes the memtable, rewrites the manifest, and closes every
// file. The WAL is empty after a clean close.
func (s *Store) Close() error {
	// After a failed job the WAL alone holds the memtables' events, and a
	// MANIFEST would claim their seqs, so none is written.
	first := s.Flush()
	if first == nil {
		first = writeManifest(s.dir, s.nextRun, s.seq, s.runs)
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

// Stats returns a copy of the I/O counters as of the last join: a running
// job's counts join them when it does.
func (s *Store) Stats() Stats { return s.stats }

// Runs reports the committed run count and total run bytes.
func (s *Store) Runs() (count int, bytes int64) {
	for _, r := range s.runs {
		bytes += r.meta.bytes
	}
	return len(s.runs), bytes
}

// Get returns the payload for an exact key: the active memtable first, then
// the frozen one, then the committed runs newest-to-oldest with bloom-filter
// short-circuiting. The payload aliases a store-owned buffer and is valid
// until the next call on the Store; copy to retain.
func (s *Store) Get(k Key) ([]byte, bool, error) {
	if p, ok := s.mem.get(k); ok {
		return p, true, nil
	}
	if s.frozen != nil {
		if p, ok := s.frozen.get(k); ok {
			return p, true, nil
		}
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

// writeManifest commits runs as dir's store. seq is the flushed bound:
// every event below it is in one of runs, so a replay skips its batch.
func writeManifest(dir string, nextRun, seq uint64, runs []*run) error {
	var b []byte
	b = append(b, manifestHeader+"\n"...)
	b = append(b, "next-run "...)
	b = strconv.AppendUint(b, nextRun, 10)
	b = append(b, "\nseq "...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, '\n')
	for _, r := range runs {
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
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
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
			r, err := openRun(runPath(s.dir, m.id), m, &s.w.metaBuf)
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

// ManifestBytes joins the running job and returns the manifest's on-disk
// contents (the determinism tests diff it across twin stores).
func (s *Store) ManifestBytes() ([]byte, error) {
	if err := s.join(); err != nil {
		return nil, err
	}
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
