package parallel

import (
	"sync"
	"testing"
)

// The typed Get*/Put* functions are one-line wrappers over classPool[T], so
// the pool properties are checked on the generic type itself, for two
// element types of different size.

// TestPoolNoCrossOwnerAliasing is the fleet-era pool hygiene regression
// test: many concurrent owners churn the global size-classed pools, each
// stamping a unique tag over its whole buffer and verifying the stamp
// survives until Put. If the pools ever handed one buffer to two live
// owners (double Put, size-class splice, racing free list), a foreign tag
// shows up — and under -race the write collision trips the detector too.
func TestPoolNoCrossOwnerAliasing(t *testing.T) {
	t.Run("float64", func(t *testing.T) { churnNoAliasing(t, &f64pool) })
	t.Run("int32", func(t *testing.T) { churnNoAliasing(t, &i32pool) })
}

func churnNoAliasing[T int32 | float64](t *testing.T, p *classPool[T]) {
	const (
		owners = 16
		rounds = 200
	)
	sizes := []int{1, 7, 64, 100, 1000, 4096}
	var wg sync.WaitGroup
	errs := make(chan string, owners)
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(tag T) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := p.get(sizes[(int(tag)+r)%len(sizes)])
				for i := range s {
					s[i] = tag
				}
				for _, v := range s {
					if v != tag {
						errs <- "buffer mutated while owned: two owners alias one pooled slice"
						return
					}
				}
				p.put(s)
			}
		}(T(o + 1))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestPoolFloorClassCapacity pins the floor-class rule the aliasing
// audit leans on: a returned slice with a non-power-of-two capacity is
// filed under the class whose buffers it can fully satisfy, so a future
// Get never receives a slice shorter than it asked for.
func TestPoolFloorClassCapacity(t *testing.T) {
	for c := 1; c <= 4097; c++ {
		if f := floorClass(c); 1<<f > c || 2<<f <= c {
			t.Fatalf("floorClass(%d) = %d: class buffers hold %d", c, f, 1<<f)
		}
	}
	t.Run("float64", func(t *testing.T) { floorClassCapacity(t, new(classPool[float64])) })
	t.Run("int32", func(t *testing.T) { floorClassCapacity(t, new(classPool[int32])) })
}

func floorClassCapacity[T any](t *testing.T, p *classPool[T]) {
	p.put(make([]T, 100)) // cap 100: between classes 6 (64) and 7 (128)
	for i := 0; i < 8; i++ {
		got := p.get(100)
		if len(got) != 100 {
			t.Fatalf("get(100) returned len %d", len(got))
		}
		p.put(got)
	}
	// Class 6 requests must also be satisfiable by the odd-capacity buffer.
	got := p.get(64)
	if len(got) != 64 {
		t.Fatalf("get(64) returned len %d", len(got))
	}
	p.put(got)
}

// TestGetIntsZeroedAfterDirtyPut holds the one typed wrapper that adds
// behaviour: a buffer returned dirty comes back all-zero. sync.Pool may drop
// any single Put (it does so at random under -race), so the round repeats
// until a recycled buffer has been seen.
func TestGetIntsZeroedAfterDirtyPut(t *testing.T) {
	reused := false
	for r := 0; r < 64; r++ {
		s := GetIntsZeroed(57)
		for i, v := range s {
			if v != 0 {
				t.Fatalf("round %d: GetIntsZeroed[%d] = %d", r, i, v)
			}
		}
		// The clear covers the 57 requested elements; a stamp left in the
		// tail of the 64-element class marks a recycled buffer.
		s = s[:64]
		if s[63] == -1 {
			reused = true
		}
		for i := range s {
			s[i] = -1
		}
		PutInts(s)
	}
	if !reused {
		t.Fatal("no buffer was recycled in 64 rounds; the check above never saw a dirty one")
	}
}
