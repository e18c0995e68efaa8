package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestLoopStartsAtZero(t *testing.T) {
	l := NewLoop()
	if l.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", l.Now())
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", l.Len())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	l := NewLoop()
	var fired Time
	l.Schedule(5*time.Millisecond, func() { fired = l.Now() })
	if !l.Step() {
		t.Fatal("Step() = false, want true")
	}
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
	if l.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", l.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	l := NewLoop()
	var order []int
	l.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	l.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	l.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	l.RunUntilIdle(0)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	l.RunUntilIdle(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO 0..9", order)
		}
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	l := NewLoop()
	l.RunUntil(Time(time.Second))
	fired := false
	l.Schedule(-time.Hour, func() { fired = true })
	l.Step()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if l.Now() != Time(time.Second) {
		t.Fatalf("Now() = %v, clock must not go backwards", l.Now())
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop()
	fired := false
	tm := l.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("Pending() = false before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	l.RunUntilIdle(0)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Pending() {
		t.Fatal("Pending() = true after Stop")
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop() = true")
	}
	if tm.Pending() {
		t.Fatal("zero Timer Pending() = true")
	}
}

func TestRunUntilAdvancesToHorizon(t *testing.T) {
	l := NewLoop()
	l.Schedule(10*time.Millisecond, func() {})
	l.RunUntil(Time(5 * time.Millisecond))
	if l.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", l.Now())
	}
	if l.Len() != 1 {
		t.Fatalf("event beyond horizon was consumed")
	}
	l.RunFor(10 * time.Millisecond)
	if l.Now() != Time(15*time.Millisecond) {
		t.Fatalf("Now() = %v, want 15ms", l.Now())
	}
	if _, ok := l.peek(); ok {
		t.Fatal("event within horizon not consumed")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	l := NewLoop()
	var times []Time
	l.Schedule(time.Millisecond, func() {
		times = append(times, l.Now())
		l.Schedule(time.Millisecond, func() { times = append(times, l.Now()) })
	})
	l.RunUntil(Time(3 * time.Millisecond))
	if len(times) != 2 {
		t.Fatalf("got %d events, want 2 (chained event within horizon)", len(times))
	}
	if times[1] != Time(2*time.Millisecond) {
		t.Fatalf("chained event at %v, want 2ms", times[1])
	}
}

func TestRunUntilIdleGuard(t *testing.T) {
	l := NewLoop()
	var rearm func()
	rearm = func() { l.Schedule(time.Nanosecond, rearm) }
	l.Schedule(0, rearm)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntilIdle did not panic on runaway loop")
		}
	}()
	l.RunUntilIdle(1000)
}

func TestProcessedCounter(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 7; i++ {
		l.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	tm := l.Schedule(time.Second, func() {})
	tm.Stop()
	l.RunUntilIdle(0)
	if l.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7 (cancelled events don't count)", l.Processed())
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(time.Second)
	if got := base.Add(time.Millisecond); got != Time(time.Second+time.Millisecond) {
		t.Fatalf("Add: got %v", got)
	}
	if got := base.Sub(Time(time.Millisecond)); got != time.Second-time.Millisecond {
		t.Fatalf("Sub: got %v", got)
	}
	if base.String() != "1s" {
		t.Fatalf("String() = %q, want 1s", base.String())
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(1, 2)
	b := NewRand(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded Rands diverged")
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	parent := NewRand(1, 2)
	c1 := parent.Fork(1)
	// Same construction again must yield the same child stream.
	parent2 := NewRand(1, 2)
	c1b := parent2.Fork(1)
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c1b.Uint64() {
			t.Fatal("forked stream not deterministic")
		}
	}
}

func TestRandBoolEdges(t *testing.T) {
	r := NewRand(3, 4)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	// p=0.5 should be roughly balanced over many draws.
	n := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.5) {
			n++
		}
	}
	if n < 4500 || n > 5500 {
		t.Fatalf("Bool(0.5): %d/10000 true, outside [4500,5500]", n)
	}
}

// BenchmarkLoopScheduleStep times the three things the queue does for a
// simulation, each over a heap preloaded to a stated depth with far-future
// events: an event scheduled from outside and run (schedule-step), an event
// whose callback re-arms the next one — a link's delivery lane, the pattern
// that takes over the running event's heap entry — and a timer moved in
// place (reschedule).
func BenchmarkLoopScheduleStep(b *testing.B) {
	const far = Time(time.Hour)
	noop := func() {}
	preload := func(depth int) *Loop {
		l := NewLoop()
		for i := 0; i < depth; i++ {
			l.At(far+Time(i), noop)
		}
		return l
	}
	b.Run("schedule-step", func(b *testing.B) {
		l := preload(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Schedule(time.Microsecond, noop)
			l.Step()
		}
	})
	for _, depth := range []int{8, 17} {
		b.Run(fmt.Sprintf("from-callback/d%d", depth), func(b *testing.B) {
			l := preload(depth - 1)
			var rearm func(any)
			rearm = func(any) {
				l.AtReserved(l.Now().Add(time.Microsecond), l.ReserveSeq(), rearm, nil)
			}
			rearm(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step()
			}
		})
	}
	b.Run("reschedule", func(b *testing.B) {
		l := preload(8)
		tm := l.At(far, noop)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm = l.Reschedule(tm, far+Time(i&1023), noop)
		}
	})
}

// Property: however events are scheduled (random times, nested scheduling,
// cancellations), execution is globally ordered by timestamp with FIFO
// ties and the clock never regresses.
func TestQuickEventOrderingProperty(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		l := NewLoop()
		rng := NewRand(seed, 0xeee)
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			d := time.Duration(rng.IntN(1000)) * time.Microsecond
			mySeq := seq
			seq++
			tm := l.Schedule(d, func() {
				log = append(log, fired{at: l.Now(), seq: mySeq})
				if depth < 2 && rng.Bool(0.3) {
					schedule(depth + 1)
				}
			})
			if rng.Bool(0.1) {
				tm.Stop()
			}
		}
		for i := 0; i < 50; i++ {
			schedule(0)
		}
		l.RunUntilIdle(0)
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				t.Fatalf("seed %d: clock regressed: %v after %v", seed, log[i].at, log[i-1].at)
			}
		}
	}
}
