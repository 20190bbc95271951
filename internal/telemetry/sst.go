package telemetry

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"sov/internal/cloud"
)

// Sorted immutable runs are the LSM tree's on-disk level unit. A run file
// is a sequence of ~4 KB data blocks (each stored through internal/cloud's
// LZ codec when that saves a tenth of it), followed by a block index (first
// key, offset, stored/raw lengths, per-block crc), the run's bloom filter,
// and a fixed footer. Point reads consult the bloom, binary-search the
// index, and read exactly one block; range scans read only the overlapping
// blocks — the index is what makes the range query "indexed" rather than a
// file scan.
//
// Every byte of a run is a pure function of the sorted entries it holds,
// so run files are byte-identical across shard/worker counts and across a
// crash-recovery replay.

// Format v2 (LZ blocks, bloom probes from hashKey) shares nothing readable
// with v1 (deflate blocks, FNV bloom) but the framing, so the version is in
// both magics and in the MANIFEST header, and Open refuses a v1 store.
const (
	runMagic       = "SOVTRUN2"
	runMagicV1     = "SOVTRUN1"
	runFooterMagic = "SOVTEND2"
	blockTarget    = 4096 // uncompressed data-block payload target

	// blockCap is what the writer's block buffers and every cursor's decode
	// buffer are made with: the target, room for the entry that carries a
	// block past it, and the decoder's slack. A block whose last entry is
	// longer grows its buffer once.
	blockCap = blockTarget + 256 + cloud.Slack
)

// blockMeta is one index entry.
type blockMeta struct {
	firstKey   Key
	compressed bool
	off        uint64
	storedLen  uint32
	rawLen     uint32
	count      uint32
	crc        uint32
}

const blockMetaSize = KeySize + 1 + 8 + 4 + 4 + 4 + 4

// footer layout: indexOff u64 | blockCount u32 | bloomOff u64 | bloomLen
// u32 | entryCount u64 | minKey | maxKey | metaCRC u32 | magic.
const footerSize = 8 + 4 + 8 + 4 + 8 + KeySize + KeySize + 4 + 8

// runWriter streams sorted entries into a run file in two stages. The
// producer, the writer job's goroutine, encodes entries into raw ~4 KB
// blocks, feeds the bloom filter, and hands each filled block to the coder,
// a goroutine that lasts the job (start, stop). The coder compresses the
// blocks in the order they were filled, each on its own (the codec clears
// its table per call), checksums them, writes them and indexes them; so a
// block's bytes depend on its entries alone, and the run's are those of a
// writer that codes each block as it fills.
//
// The producer fills the ring's blocks in turn and waits for the coder only
// when every other block is still in flight. While any is, the coder alone
// touches the file buffer, the offset, the index and its match table; the
// producer takes them back once it has drained the coder (finish, abort).
// The store holds one runWriter, begun anew for every flush and compaction,
// so its ring, channels and buffers are allocated once, at its first job.
type runWriter struct {
	// the producer's
	path     string
	f        *os.File
	ring     [ringBlocks]pendingBlock
	cur      int    // the ring slot being filled
	inflight int    // slots handed to the coder and not yet returned
	tail     []byte // marshaled index, bloom and footer
	filter   *bloom
	minKey   Key
	maxKey   Key
	count    uint64
	started  bool

	// the coder's while a block is in flight
	bw     *bufio.Writer
	off    uint64
	index  []blockMeta
	table  cloud.Table
	packed []byte // the block compressed
	werr   error  // the run's first write error: every later block is dropped

	// The channels hold at most the slots in flight, ringBlocks, so no send
	// on them blocks.
	full chan int   // the next slot to code, or -1 to stop
	free chan error // a coded slot's return, with werr as it stands
}

// ringBlocks is the number of blocks in the ring: the one being filled and
// those in flight to the coder.
const ringBlocks = 8

// pendingBlock is a raw block and its index entry as the producer filled
// them (first key and count); the coder fills in the rest.
type pendingBlock struct {
	body []byte
	bm   blockMeta
}

// start starts the coder for a writer job; stop ends it and returns once it
// has stopped. In between the writer writes any number of runs, one at a
// time.
func (w *runWriter) start() {
	if w.full == nil {
		w.full = make(chan int, ringBlocks)
		w.free = make(chan error, ringBlocks)
		w.bw = bufio.NewWriterSize(nil, 1<<16)
		bufs := make([]byte, (ringBlocks+1)*blockCap)
		for i := range w.ring {
			w.ring[i].body = bufs[i*blockCap : i*blockCap : (i+1)*blockCap]
		}
		w.packed = bufs[ringBlocks*blockCap : ringBlocks*blockCap]
	}
	go w.code()
}

func (w *runWriter) stop() {
	w.drain()
	w.full <- -1
	<-w.free
}

// code is the coder's loop: it codes each slot handed to it, in order,
// until stop.
func (w *runWriter) code() {
	for i := <-w.full; i >= 0; i = <-w.full {
		if w.werr == nil {
			w.werr = w.writeBlock(&w.ring[i])
		}
		w.free <- w.werr
	}
	w.free <- nil
}

// drain waits until the coder has returned every slot in flight, and
// returns the run's write error.
func (w *runWriter) drain() error {
	for ; w.inflight > 0; w.inflight-- {
		<-w.free
	}
	return w.werr
}

// begin creates the run file at path and resets the writer for it.
func (w *runWriter) begin(path string, expectEntries int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w.bw.Reset(f)
	w.path, w.f = path, f
	w.filter = newBloom(expectEntries)
	w.index, w.werr = w.index[:0], nil
	w.count, w.started = 0, false
	w.off = uint64(len(runMagic))
	if _, err := w.bw.WriteString(runMagic); err != nil {
		w.abort()
		return err
	}
	return nil
}

// abort abandons the run being written: a failed flush or compaction must
// leave neither an open handle nor a partial file the MANIFEST never names.
func (w *runWriter) abort() {
	w.drain()
	b := &w.ring[w.cur]
	b.body, b.bm = b.body[:0], blockMeta{}
	w.f.Close()
	os.Remove(w.path)
}

// add appends one entry; keys must arrive in strictly ascending order.
func (w *runWriter) add(k Key, payload []byte) error {
	if !w.started {
		w.minKey = k
		w.started = true
	}
	w.maxKey = k
	b := &w.ring[w.cur]
	if b.bm.count == 0 {
		b.bm.firstKey = k
	}
	w.filter.add(hashKey(k))
	b.body = appendKey(b.body, k)
	b.body = binary.AppendUvarint(b.body, uint64(len(payload)))
	b.body = append(b.body, payload...)
	b.bm.count++
	w.count++
	if len(b.body) >= blockTarget {
		return w.send()
	}
	return nil
}

// send hands the filled slot to the coder and moves to the next one, first
// waiting for the coder to return it if it is still in flight. It returns
// the run's write error as the coder last reported it.
func (w *runWriter) send() (err error) {
	w.full <- w.cur
	w.inflight++
	w.cur = (w.cur + 1) % ringBlocks
	if w.inflight == ringBlocks {
		err = <-w.free
		w.inflight--
	}
	b := &w.ring[w.cur]
	b.body, b.bm = b.body[:0], blockMeta{}
	return err
}

// writeBlock codes a filled block, stored compressed when that saves a
// tenth of it and checksummed as stored, writes it and indexes it.
func (w *runWriter) writeBlock(b *pendingBlock) error {
	raw := len(b.body)
	stored := b.body
	w.packed = cloud.AppendCompress(w.packed[:0], b.body, &w.table)
	if b.bm.compressed = len(w.packed) < raw-raw/10; b.bm.compressed {
		stored = w.packed
	}
	b.bm.rawLen, b.bm.storedLen = uint32(raw), uint32(len(stored))
	b.bm.crc = crc32.ChecksumIEEE(stored)
	b.bm.off = w.off
	w.index = append(w.index, b.bm)
	if _, err := w.bw.Write(stored); err != nil {
		return err
	}
	w.off += uint64(len(stored))
	return nil
}

// finish writes the last block, index, bloom, and footer, then closes the
// file. It returns the run's metadata for the manifest; on error the run is
// aborted.
func (w *runWriter) finish() (meta runMeta, err error) {
	defer func() {
		if err != nil {
			w.abort()
		}
	}()
	if w.ring[w.cur].bm.count > 0 {
		if err := w.send(); err != nil {
			return runMeta{}, err
		}
	}
	if err := w.drain(); err != nil {
		return runMeta{}, err
	}
	indexOff := w.off
	tail := w.tail[:0]
	for _, bm := range w.index {
		tail = appendKey(tail, bm.firstKey)
		if bm.compressed {
			tail = append(tail, 1)
		} else {
			tail = append(tail, 0)
		}
		tail = binary.LittleEndian.AppendUint64(tail, bm.off)
		tail = binary.LittleEndian.AppendUint32(tail, bm.storedLen)
		tail = binary.LittleEndian.AppendUint32(tail, bm.rawLen)
		tail = binary.LittleEndian.AppendUint32(tail, bm.count)
		tail = binary.LittleEndian.AppendUint32(tail, bm.crc)
	}
	indexLen := len(tail)
	tail = w.filter.appendTo(tail)
	bloomLen := len(tail) - indexLen
	crc := crc32.ChecksumIEEE(tail)

	tail = binary.LittleEndian.AppendUint64(tail, indexOff)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(w.index)))
	tail = binary.LittleEndian.AppendUint64(tail, indexOff+uint64(indexLen))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(bloomLen))
	tail = binary.LittleEndian.AppendUint64(tail, w.count)
	tail = appendKey(tail, w.minKey)
	tail = appendKey(tail, w.maxKey)
	tail = binary.LittleEndian.AppendUint32(tail, crc)
	tail = append(tail, runFooterMagic...)
	w.tail = tail

	if _, err := w.bw.Write(tail); err != nil {
		return runMeta{}, err
	}
	if err := w.bw.Flush(); err != nil {
		return runMeta{}, err
	}
	if err := w.f.Close(); err != nil {
		return runMeta{}, err
	}
	return runMeta{
		entries: w.count,
		bytes:   int64(indexOff) + int64(len(tail)),
		minKey:  w.minKey,
		maxKey:  w.maxKey,
		crc:     crc,
	}, nil
}

// runMeta is what the manifest records per run.
type runMeta struct {
	id      uint64
	tier    int
	entries uint64
	bytes   int64
	minKey  Key
	maxKey  Key
	crc     uint32
}

// run is an open immutable run: its index and bloom resident in memory,
// data blocks read on demand through a blockCursor.
type run struct {
	meta   runMeta
	f      *os.File
	index  []blockMeta
	filter *bloom
}

// openRun loads a run's index and bloom, reading them through *scratch (the
// store's, grown to the largest metadata it has read: nothing points into
// it once they are parsed). Nothing the file says is trusted before it is
// checked: the footer's offsets against the file size, the index and bloom
// against the footer's crc, every block's extent against the data region.
func openRun(path string, meta runMeta, scratch *[]byte) (_ *run, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < int64(len(runMagic)+footerSize) {
		return nil, fmt.Errorf("telemetry: run %s truncated", path)
	}
	footer := make([]byte, footerSize)
	magic := footer[:len(runMagic)] // read before the footer is
	if _, err := f.ReadAt(magic, 0); err != nil {
		return nil, err
	}
	switch string(magic) {
	case runMagic:
	case runMagicV1:
		return nil, fmt.Errorf("telemetry: run %s is run format v1; this build reads and writes only v2", path)
	default:
		return nil, fmt.Errorf("telemetry: run %s bad header magic", path)
	}
	if _, err := f.ReadAt(footer, st.Size()-footerSize); err != nil {
		return nil, err
	}
	if string(footer[footerSize-8:]) != runFooterMagic {
		return nil, fmt.Errorf("telemetry: run %s bad footer magic", path)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	blockCount := binary.LittleEndian.Uint32(footer[8:12])
	bloomOff := binary.LittleEndian.Uint64(footer[12:20])
	bloomLen := binary.LittleEndian.Uint32(footer[20:24])
	entryCount := binary.LittleEndian.Uint64(footer[24:32])
	minKey := decodeKey(footer[32 : 32+KeySize])
	maxKey := decodeKey(footer[32+KeySize : 32+2*KeySize])
	wantCRC := binary.LittleEndian.Uint32(footer[32+2*KeySize : 32+2*KeySize+4])

	// The footer is outside every crc, so what it repeats of the MANIFEST
	// entry (written by the same finish that wrote the footer) must agree.
	if st.Size() != meta.bytes || entryCount != meta.entries ||
		minKey != meta.minKey || maxKey != meta.maxKey || wantCRC != meta.crc {
		return nil, fmt.Errorf("telemetry: run %s footer disagrees with the manifest", path)
	}
	// Magic, blocks, index, bloom and footer tile the file in that order.
	// bloomOff is compared before it is added to, so a huge value cannot
	// wrap into range.
	tailOff := uint64(st.Size() - footerSize)
	if indexOff < uint64(len(runMagic)) || indexOff > bloomOff || bloomOff > tailOff ||
		bloomOff+uint64(bloomLen) != tailOff ||
		bloomOff-indexOff != uint64(blockCount)*blockMetaSize {
		return nil, fmt.Errorf("telemetry: run %s footer offsets out of range", path)
	}
	metaBuf := slices.Grow((*scratch)[:0], int(tailOff-indexOff))[:tailOff-indexOff]
	*scratch = metaBuf
	if _, err := f.ReadAt(metaBuf, int64(indexOff)); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(metaBuf) != wantCRC {
		return nil, fmt.Errorf("telemetry: run %s index crc mismatch", path)
	}
	r := &run{meta: meta, f: f, index: make([]blockMeta, blockCount)}
	for i := range r.index {
		b := metaBuf[i*blockMetaSize:]
		bm := blockMeta{
			firstKey:   decodeKey(b[:KeySize]),
			compressed: b[KeySize] == 1,
			off:        binary.LittleEndian.Uint64(b[KeySize+1:]),
			storedLen:  binary.LittleEndian.Uint32(b[KeySize+9:]),
			rawLen:     binary.LittleEndian.Uint32(b[KeySize+13:]),
			count:      binary.LittleEndian.Uint32(b[KeySize+17:]),
			crc:        binary.LittleEndian.Uint32(b[KeySize+21:]),
		}
		if bm.off < uint64(len(runMagic)) || bm.off > indexOff || uint64(bm.storedLen) > indexOff-bm.off {
			return nil, fmt.Errorf("telemetry: run %s block %d outside the data region", path, i)
		}
		r.index[i] = bm
	}
	if r.filter = unmarshalBloom(metaBuf[bloomOff-indexOff:]); r.filter == nil {
		return nil, fmt.Errorf("telemetry: run %s bad bloom", path)
	}
	return r, nil
}

func (r *run) close() error { return r.f.Close() }

// blockFor returns the index of the block that could contain k.
func (r *run) blockFor(k Key) int {
	i := sort.Search(len(r.index), func(i int) bool {
		return k.Less(r.index[i].firstKey)
	})
	return i - 1 // -1 when k precedes the first block
}

// get returns the payload for an exact key, hash being its hashKey, read
// through cur (the payload aliases cur's buffer). The bloom filter
// short-circuits most absent keys without any block I/O.
func (r *run) get(k Key, hash uint64, cur *blockCursor, st *Stats) ([]byte, bool, error) {
	if k.Less(r.meta.minKey) || r.meta.maxKey.Less(k) {
		return nil, false, nil
	}
	if !r.filter.test(hash) {
		st.BloomSkips++
		return nil, false, nil
	}
	bi := r.blockFor(k)
	if bi < 0 {
		return nil, false, nil
	}
	cur.seek(r, st, bi, bi)
	for {
		ok, err := cur.next()
		if err != nil {
			return nil, false, cur.fail(err)
		}
		if !ok || k.Less(cur.key) {
			return nil, false, nil
		}
		if cur.key == k {
			return cur.val, true, nil
		}
	}
}

// What a block can be found wanting of once its crc has passed. They are
// values, not fmt.Errorf calls, because the cursor's hot methods return
// them; blockCursor.fail adds the run and block.
var (
	errBlockCRC   = errors.New("block crc mismatch")
	errBlockLen   = errors.New("block length differs from its index entry")
	errBlockCount = errors.New("block entry count differs from its index entry")
	errShortEntry = errors.New("short block entry")
)

// blockCursor walks a range of one run's blocks entry by entry. It is the
// one decoder of the block entry format (key, uvarint length, payload), and
// it owns the buffers a block is read and decoded into: key and val stay
// valid while sibling cursors of the same merge load their own blocks, until
// this cursor's next call. Compaction, Scan and Get all read through one.
type blockCursor struct {
	r      *run
	st     *Stats
	bi     int    // next block to load; bi-1 is the one being walked
	last   int    // last block to walk
	stored []byte // the block as the file holds it
	raw    []byte // the block decompressed, when it is stored compressed
	rest   []byte // undecoded remainder of the block being walked
	left   uint32 // entries the index says rest holds
	key    Key
	val    []byte
}

// seek positions the cursor before the first entry of block first; next
// walks on through block last.
func (c *blockCursor) seek(r *run, st *Stats, first, last int) {
	c.r, c.st, c.bi, c.last = r, st, first, last
	c.rest, c.left = nil, 0
}

// next decodes the following entry into key and val. It returns false at
// the end of the block range.
func (c *blockCursor) next() (bool, error) {
	if len(c.rest) == 0 {
		if c.left != 0 {
			return false, errBlockCount
		}
		if c.bi > c.last {
			return false, nil
		}
		c.bi++
		if err := c.load(&c.r.index[c.bi-1]); err != nil {
			return false, err
		}
	}
	b := c.rest
	if c.left == 0 {
		return false, errBlockCount
	}
	if len(b) < KeySize {
		return false, errShortEntry
	}
	c.key = decodeKey(b)
	b = b[KeySize:]
	pn, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < pn {
		return false, errShortEntry
	}
	c.val = b[n : n+int(pn)]
	c.rest = b[n+int(pn):]
	c.left--
	return true, nil
}

// load is the store's one block loader: it reads the block bm indexes,
// charges it to st, checks its crc, and decodes it bounded by the index
// entry's raw length, then holds it to that length.
func (c *blockCursor) load(bm *blockMeta) error {
	c.stored = slices.Grow(c.stored[:0], int(bm.storedLen))[:bm.storedLen]
	if _, err := c.r.f.ReadAt(c.stored, int64(bm.off)); err != nil {
		return err
	}
	c.st.BlocksRead++
	c.st.RunBytesRead += int64(bm.storedLen)
	if crc32.ChecksumIEEE(c.stored) != bm.crc {
		return errBlockCRC
	}
	body := c.stored
	if bm.compressed {
		if c.raw == nil {
			c.raw = make([]byte, 0, blockCap)
		}
		raw, err := cloud.AppendDecompress(c.raw[:0], c.stored, int(bm.rawLen))
		if err != nil {
			return err
		}
		c.raw, body = raw, raw
	}
	if len(body) != int(bm.rawLen) {
		return errBlockLen
	}
	c.rest, c.left = body, bm.count
	return nil
}

// fail names the run and block a cursor error came from.
func (c *blockCursor) fail(err error) error {
	return fmt.Errorf("telemetry: run %06d block %d: %w", c.r.meta.id, c.bi-1, err)
}

// runPath names run id's file.
func runPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("run-%06d.sst", id))
}
