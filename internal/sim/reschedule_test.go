package sim

import (
	"math/rand/v2"
	"testing"
	"time"
)

// TestRescheduleMatchesStopPlusSchedule is the ordering-identity contract:
// a randomized mix of schedules, cancels and retargets must execute in
// exactly the same order whether retargeting uses Reschedule or the classic
// Stop-then-At pair. The two loops are driven side by side with identical
// decisions and their execution logs compared.
func TestRescheduleMatchesStopPlusSchedule(t *testing.T) {
	type action struct {
		kind   int // 0 = schedule, 1 = stop, 2 = retarget
		at     Time
		victim int
	}
	rng := rand.New(rand.NewPCG(9, 9))
	var actions []action
	for i := 0; i < 3000; i++ {
		a := action{
			kind: rng.IntN(3),
			at:   Time(rng.Int64N(100)) * Time(time.Millisecond),
		}
		a.victim = rng.IntN(i + 1)
		actions = append(actions, a)
	}

	run := func(useReschedule bool) []int {
		l := NewLoop()
		var got []int
		var timers []Timer
		fns := make([]func(), len(actions))
		for i, a := range actions {
			i := i
			fns[i] = func() { got = append(got, i) }
			switch a.kind {
			case 0:
				timers = append(timers, l.At(a.at, fns[i]))
			case 1:
				timers = append(timers, Timer{})
				if a.victim < len(timers) {
					timers[a.victim].Stop()
				}
			default:
				timers = append(timers, Timer{})
				if useReschedule {
					timers[a.victim] = l.Reschedule(timers[a.victim], a.at, fns[i])
				} else {
					timers[a.victim].Stop()
					timers[a.victim] = l.At(a.at, fns[i])
				}
			}
		}
		l.RunUntilIdle(0)
		return got
	}

	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("Reschedule run executed %d events, Stop+At run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution diverges at position %d: Reschedule ran %d, Stop+At ran %d", i, got[i], want[i])
		}
	}
}

// TestRescheduleRevivesStoppedTimer checks the revive-in-place path: a
// stopped timer whose heap entry has not drained is retargeted without
// growing the heap, and the old handle stays inert.
func TestRescheduleRevivesStoppedTimer(t *testing.T) {
	l := NewLoop()
	fired := 0
	old := l.Schedule(time.Second, func() { t.Fatal("stopped event fired") })
	old.Stop()
	if l.Len() != 0 {
		t.Fatalf("Len after stop = %d, want 0 (dead entries are not pending work)", l.Len())
	}
	tm := l.Reschedule(old, l.Now().Add(time.Millisecond), func() { fired++ })
	if len(l.events) != 1 {
		t.Fatalf("revival grew the heap to %d entries, want 1", len(l.events))
	}
	if old.Stop() || old.Pending() {
		t.Fatal("pre-reschedule handle can still reach the revived event")
	}
	if !tm.Pending() {
		t.Fatal("revived timer not pending")
	}
	l.RunUntilIdle(0)
	if fired != 1 {
		t.Fatalf("revived event fired %d times, want 1", fired)
	}
}

// TestLenCountsLiveEvents is the regression test for Loop.Len reporting
// live events only: stopped-but-undrained timers used to be counted, which
// skewed idle detection and pending-event assertions.
func TestLenCountsLiveEvents(t *testing.T) {
	l := NewLoop()
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, l.Schedule(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
	}
	for i := 0; i < 4; i++ {
		timers[i].Stop()
	}
	if l.Len() != 6 {
		t.Fatalf("Len after 4 stops = %d, want 6 (dead heap entries must not count)", l.Len())
	}
	// Run past the first two (stopped) entries: draining dead entries must
	// not change the live count, and no live event fires before 5ms.
	l.RunFor(2500 * time.Microsecond)
	if l.Len() != 6 {
		t.Fatalf("Len after draining dead head = %d, want 6", l.Len())
	}
	l.RunUntilIdle(0)
	if l.Len() != 0 {
		t.Fatalf("Len after idle = %d, want 0", l.Len())
	}
}

// TestRescheduleSteadyStateAllocs pins the retarget fast path at zero
// allocations once capacity is warm — the pop-then-push pattern every
// cumulative ACK pays must not touch the heap allocator.
func TestRescheduleSteadyStateAllocs(t *testing.T) {
	l := NewLoop()
	noop := func(any) {}
	var tm Timer
	cycle := func() {
		for i := 0; i < 32; i++ {
			tm = l.RescheduleArg(tm, l.Now().Add(time.Duration(i%5)*time.Microsecond), noop, nil)
		}
		l.RunUntilIdle(0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state reschedule allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestRunningEventsOwnTimerIsSpent: the running event's heap entry stays in
// the heap while its callback runs, but its Timer must not see that. Inside
// the callback the Timer is neither pending nor stoppable, Len does not count
// the event, and rescheduling the Timer schedules a fresh event — which
// takes over the entry — exactly as if the event had been removed first.
func TestRunningEventsOwnTimerIsSpent(t *testing.T) {
	l := NewLoop()
	other := l.Schedule(2*time.Millisecond, func() {})
	var own, again Timer
	ranAgain := false
	own = l.Schedule(time.Millisecond, func() {
		if own.Pending() || own.Stop() {
			t.Error("the running event's Timer is still pending or stoppable")
		}
		if l.Len() != 1 {
			t.Errorf("Len inside the callback = %d, want 1: the running event is not pending work", l.Len())
		}
		if at, ok := l.NextEventAt(); !ok || at != Time(2*time.Millisecond) {
			t.Errorf("NextEventAt inside the callback = %v, %v; want the other event's 2ms", at, ok)
		}
		again = l.Reschedule(own, l.Now(), func() { ranAgain = true })
		if !again.Pending() || own.Pending() || l.Len() != 2 {
			t.Errorf("after rescheduling the spent Timer: new pending %v, old pending %v, Len %d; want true, false, 2",
				again.Pending(), own.Pending(), l.Len())
		}
		if st := l.Stats(); st.Rescheduled != 0 {
			t.Errorf("rescheduling a spent Timer counted as %d in-place reschedules, want 0", st.Rescheduled)
		}
	})
	if !l.Step() || !l.Step() || !ranAgain {
		t.Fatal("the event scheduled from the callback did not run next")
	}
	if !other.Pending() || l.Len() != 1 {
		t.Fatalf("the bystander: pending %v, Len %d; want true, 1", other.Pending(), l.Len())
	}
}

// TestScheduleFromCallbackSteadyStateAllocs pins the paths that take over or
// pass by the running event's heap entry at zero allocations: a callback that
// schedules the next event with a Timer (AtArg, into the vacant root), one
// that moves another Timer (Reschedule, around the vacant root) and then
// schedules, and one that schedules nothing.
func TestScheduleFromCallbackSteadyStateAllocs(t *testing.T) {
	l := NewLoop()
	noop := func(any) {}
	var rto Timer
	var chain func(any)
	n := 0
	chain = func(any) {
		switch n++; n % 4 {
		case 0: // schedules nothing: the chain ends, the entry is removed
		case 1:
			l.AtArg(l.Now().Add(time.Microsecond), chain, nil)
		default:
			rto = l.RescheduleArg(rto, l.Now().Add(time.Second), noop, nil)
			l.AtArg(l.Now(), chain, nil)
		}
	}
	round := func() {
		n = 0
		l.AtArg(l.Now(), chain, nil)
		for l.StepBefore(l.Now().Add(time.Millisecond)) {
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("scheduling from a callback allocates %.2f per round, want 0", avg)
	}
}
