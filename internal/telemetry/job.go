package telemetry

import (
	"os"
	"path/filepath"
	"slices"
)

// writer is the store's one writer job: it writes a frozen memtable as a
// run, runs the compactions that run triggers, commits the result in the
// MANIFEST, and then removes what the MANIFEST no longer needs. The store
// fills it and starts the job on its own goroutine at a freeze (Store.freeze)
// and reads it back at the join (Store.join); between the two the job alone
// touches it, and it touches nothing of the store but the frozen memtable
// and the committed runs, which no one changes while it runs.
type writer struct {
	dir       string
	mem       *memtable // the frozen memtable
	seq       uint64    // the MANIFEST's bound: every event below it is in mem or an older run
	retireWAL bool      // wal.prev holds exactly mem's batches: remove it once committed
	compact   bool

	runs    []*run // the committed runs at the freeze, then the job's run list
	nextRun uint64
	created []*run // runs this job opened: removed if it fails
	victims []*run // runs its merges replaced: removed once committed, closed at the join
	stats   Stats  // the job's own counts, added to the store's at the join

	// reused state: the one run writer, the merge's cursors, the buffer
	// openRun reads index and bloom through, and the tier scratch
	rw         runWriter
	cursors    cursorPool
	metaBuf    []byte
	tierCounts map[int][]int

	// crashPoint, when a test sets it, is called after each step of run
	// with the step's name, to copy the directory a crash there leaves.
	crashPoint func(step string)
}

// run is the job. Its steps, each a crash point Open recovers from: the run
// created and written, each merged run created and written, the MANIFEST
// renamed, wal.prev removed, each victim removed. It fails only before the
// MANIFEST is renamed, and then removes every run it wrote. The run
// writer's coder lives as long as the job, a failed one included.
func (w *writer) run() (err error) {
	w.rw.start()
	defer func() {
		w.rw.stop()
		if err != nil {
			for _, r := range w.created {
				r.close()
				os.Remove(runPath(w.dir, r.meta.id))
			}
		}
	}()
	if err := w.flush(); err != nil {
		return err
	}
	if w.compact {
		if err := w.compactTiers(); err != nil {
			return err
		}
	}
	if err := writeManifest(w.dir, w.nextRun, w.seq, w.runs); err != nil {
		return err
	}
	w.step("MANIFEST renamed")
	// Committed. A file a crash or a failed remove leaves here is one Open
	// removes: a run the MANIFEST does not name, a wal.prev below its seq.
	if w.retireWAL {
		os.Remove(filepath.Join(w.dir, walPrevName))
		w.step("wal.prev removed")
	}
	for _, r := range w.victims {
		os.Remove(runPath(w.dir, r.meta.id))
		w.step("victim removed")
	}
	return nil
}

func (w *writer) step(name string) {
	if w.crashPoint != nil {
		w.crashPoint(name)
	}
}

// flush writes the frozen memtable as a new level-0 run.
func (w *writer) flush() error {
	id, err := w.begin(w.mem.len())
	if err != nil {
		return err
	}
	w.step("run created")
	for _, e := range w.mem.entries {
		if err := w.rw.add(e.key, w.mem.arena[e.off:e.off+e.n]); err != nil {
			w.rw.abort()
			return err
		}
	}
	r, err := w.finish(id)
	if err != nil {
		return err
	}
	w.stats.Flushes++
	w.runs = append(w.runs, r)
	w.step("run written")
	return nil
}

// begin starts writing the run with the next id, sized for expect entries.
func (w *writer) begin(expect int) (uint64, error) {
	id := w.nextRun
	w.nextRun++
	return id, w.rw.begin(runPath(w.dir, id), expect)
}

// finish completes the run being written as run id and opens it.
func (w *writer) finish(id uint64) (*run, error) {
	meta, err := w.rw.finish()
	if err != nil {
		return nil, err
	}
	meta.id = id
	meta.tier = tierOf(meta.bytes)
	w.stats.RunBytesWritten += meta.bytes
	r, err := openRun(runPath(w.dir, id), meta, &w.metaBuf)
	if err != nil {
		os.Remove(runPath(w.dir, id))
		return nil, err
	}
	w.created = append(w.created, r)
	return r, nil
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

// compactTiers repeatedly merges the lowest overflowing tier until no tier
// holds tierFanout runs.
func (w *writer) compactTiers() error {
	for {
		clear(w.tierCounts)
		maxTier := 0
		for i, r := range w.runs {
			w.tierCounts[r.meta.tier] = append(w.tierCounts[r.meta.tier], i)
			if r.meta.tier > maxTier {
				maxTier = r.meta.tier
			}
		}
		victim := -1
		for t := 0; t <= maxTier; t++ {
			if len(w.tierCounts[t]) >= tierFanout {
				victim = t
				break
			}
		}
		if victim < 0 {
			return nil
		}
		// Oldest tierFanout runs of the tier (runs are id-ordered).
		if err := w.mergeAt(w.tierCounts[victim][:tierFanout]); err != nil {
			return err
		}
	}
}

// mergeAt merges the runs at the given positions (ascending) into a new
// run and puts it in their place; the job removes them once it has
// committed, and the store closes them at the join.
func (w *writer) mergeAt(positions []int) error {
	first := len(w.victims)
	var total uint64
	for _, p := range positions {
		w.victims = append(w.victims, w.runs[p])
		total += w.runs[p].meta.entries
	}
	victims := w.victims[first:]
	id, err := w.begin(int(total))
	if err != nil {
		return err
	}
	w.step("merged run created")
	if err := w.merge(victims); err != nil {
		w.rw.abort()
		return err
	}
	nr, err := w.finish(id)
	if err != nil {
		return err
	}
	w.stats.Compactions++
	// The merged run has the newest id, so id order holds with it last.
	w.runs = append(slices.DeleteFunc(w.runs, func(r *run) bool { return slices.Contains(victims, r) }), nr)
	w.step("merged run written")
	return nil
}

// merge streams the union of runs (oldest first) into the run writer
// through Scan's sources and least-key pick.
func (w *writer) merge(runs []*run) error {
	srcs, err := sources(runs, &w.cursors, &w.stats, Key{}, keyMax)
	defer w.cursors.release(srcs)
	if err != nil {
		return err
	}
	for {
		best, err := least(srcs)
		if best < 0 || err != nil {
			return err
		}
		if err := w.rw.add(srcs[best].key, srcs[best].val); err != nil {
			return err
		}
		if err := srcs[best].next(); err != nil {
			return err
		}
	}
}
