package simclock

import (
	"math"
	"sync"
	"testing"
)

func TestAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %g, want 0", c.Now())
	}
	c.Advance(100)
	c.Advance(0.5)
	if got := c.Now(); got != 100.5 {
		t.Errorf("Now = %g, want 100.5", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Advance did not panic")
		}
	}()
	New().Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(50)
	c.AdvanceTo(40) // no-op: already past
	if c.Now() != 50 {
		t.Errorf("AdvanceTo backwards moved clock to %g", c.Now())
	}
	c.AdvanceTo(70)
	if c.Now() != 70 {
		t.Errorf("AdvanceTo = %g, want 70", c.Now())
	}
}

// TestAdvanceToExact: AdvanceTo moves the clock exactly when ns > now,
// so NaN, -0 and an equal time leave its bits as they are, and +Inf is
// a time like any other.
func TestAdvanceToExact(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, now := range []float64{0, 5, inf, nan} {
		for _, ns := range []float64{nan, negZero, 0, 5, 7, inf} {
			c := New()
			c.Advance(now)
			want := now
			if ns > now {
				want = ns
			}
			c.AdvanceTo(ns)
			if got := c.Now(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("at %g, AdvanceTo(%g) left %g, want %g", now, ns, got, want)
			}
		}
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Advance(5)
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset left clock at %g", c.Now())
	}
}

func TestStopwatch(t *testing.T) {
	c := New()
	c.Advance(10)
	sw := NewStopwatch(c)
	c.Advance(25)
	if got := sw.Elapsed(); got != 25 {
		t.Errorf("Elapsed = %g, want 25", got)
	}
	sw.Restart()
	c.Advance(3)
	if got := sw.Elapsed(); got != 3 {
		t.Errorf("after Restart, Elapsed = %g, want 3", got)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8000 {
		t.Errorf("concurrent advances lost: Now = %g, want 8000", got)
	}
}

// TestConcurrentAdvanceTo: goroutines raising one clock to distinct
// times leave it at the largest, whatever order their CASes land in.
func TestConcurrentAdvanceTo(t *testing.T) {
	const workers, each = 8, 1000
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.AdvanceTo(float64(j*workers + i))
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), float64(workers*each-1); got != want {
		t.Errorf("concurrent AdvanceTo left %g, want the maximum %g", got, want)
	}
}
