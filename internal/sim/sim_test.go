package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(3*time.Millisecond, "c", func() { order = append(order, "c") })
	e.Schedule(1*time.Millisecond, "a", func() { order = append(order, "a") })
	e.Schedule(2*time.Millisecond, "b", func() { order = append(order, "b") })
	n := e.Run(time.Second)
	if n != 3 {
		t.Fatalf("events = %d", n)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, "x", func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(7*time.Millisecond, "t", func() { at = e.Now() })
	e.Run(time.Second)
	if at != 7*time.Millisecond {
		t.Fatalf("now = %v", at)
	}
}

func TestHorizonCutsOff(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2*time.Second, "late", func() { fired = true })
	e.Run(time.Second)
	if fired {
		t.Fatal("event past horizon fired")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want horizon", e.Now())
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d", len(e.queue))
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(100*time.Millisecond, "tick", func() { count++ })
	e.Run(time.Second)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(time.Millisecond, "tick", func() {
		count++
		if count == 5 {
			e.Stop()
		}
	})
	e.Run(time.Second)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

func TestNestedSchedule(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(time.Millisecond, "outer", func() {
		times = append(times, e.Now())
		e.Schedule(time.Millisecond, "inner", func() {
			times = append(times, e.Now())
		})
	})
	e.Run(time.Second)
	if len(times) != 2 || times[1] != 2*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5*time.Millisecond, "past", func() { fired = true })
	e.Run(time.Second)
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
}

func TestEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Every(0, "bad", func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(1)
	c1 := r.Fork()
	c2 := r.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("forked streams too correlated: %d/100 equal", same)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(10, 50, 0, 20)
		if v < 0 || v > 20 {
			t.Fatalf("out of bounds: %v", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("non-positive lognormal draw")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(3, 5)
		if v < 3 || v >= 5 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("p=0 returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("p=1 returned false")
		}
	}
}
