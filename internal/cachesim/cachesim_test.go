package cachesim

import (
	"testing"
	"testing/quick"
)

func TestSequentialScanIsCompulsoryOnly(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	for a := int64(0); a < 2048; a += 8 {
		c.Access(a, 8)
	}
	s := c.Stats()
	// 2048/64 = 32 lines, each missed exactly once.
	if s.Misses != 32 {
		t.Fatalf("misses = %d, want 32", s.Misses)
	}
	if s.TrafficRatio() != 1.0 {
		t.Fatalf("ratio = %v, want 1 for streaming", s.TrafficRatio())
	}
}

func TestRepeatedAccessHitsAfterFirst(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	for i := 0; i < 100; i++ {
		c.Access(128, 8)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if s.Accesses != 100 {
		t.Fatalf("accesses = %d", s.Accesses)
	}
}

func TestThrashingBeyondCapacity(t *testing.T) {
	// Working set 8x the cache, cyclic access: every access misses (LRU
	// pathological case).
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	for round := 0; round < 4; round++ {
		for a := int64(0); a < 8*1024; a += 64 {
			c.Access(a, 1)
		}
	}
	s := c.Stats()
	if s.MissRate() < 0.99 {
		t.Fatalf("miss rate = %v, want ~1 under thrash", s.MissRate())
	}
	if s.TrafficRatio() < 3.9 {
		t.Fatalf("traffic ratio = %v, want ~4 (4 rounds)", s.TrafficRatio())
	}
}

func TestAssociativityConflicts(t *testing.T) {
	// Direct-mapped: two lines mapping to the same set always conflict.
	dm := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	// sets = 2; addresses 0 and 128 both map to set 0.
	for i := 0; i < 10; i++ {
		dm.Access(0, 1)
		dm.Access(128, 1)
	}
	if dm.Stats().Misses != 20 {
		t.Fatalf("direct-mapped conflict misses = %d, want 20", dm.Stats().Misses)
	}
	// 2-way tolerates them.
	sa := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	for i := 0; i < 10; i++ {
		sa.Access(0, 1)
		sa.Access(128, 1)
	}
	if sa.Stats().Misses != 2 {
		t.Fatalf("2-way misses = %d, want 2", sa.Stats().Misses)
	}
}

func TestMultiLineAccess(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	c.Access(60, 8) // straddles lines 0 and 1
	if c.Stats().Misses != 2 {
		t.Fatalf("straddle misses = %d, want 2", c.Stats().Misses)
	}
}

func TestZeroSizeAccessCountsOne(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	c.Access(0, 0)
	if c.Stats().Accesses != 1 {
		t.Fatalf("accesses = %d", c.Stats().Accesses)
	}
}

func TestReset(t *testing.T) {
	c := New(Config{SizeBytes: 96 * 1024, LineBytes: 64, Ways: 12})
	c.Access(0, 64)
	c.Reset()
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 || s.CompulsoryBytes != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
	c.Access(0, 1)
	if c.Stats().Misses != 1 {
		t.Fatal("line survived reset")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestTrafficRatioAlwaysAtLeastOne(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
		for _, a := range addrs {
			c.Access(int64(a), 4)
		}
		s := c.Stats()
		if s.Accesses == 0 {
			return true
		}
		return s.TrafficRatio() >= 0.999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStats(t *testing.T) {
	s := New(Config{SizeBytes: 96 * 1024, LineBytes: 64, Ways: 12}).Stats()
	if s.TrafficRatio() != 0 || s.MissRate() != 0 {
		t.Fatal("empty cache should report zero ratios")
	}
}
