package sim

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// runLaneProgram runs a random program of FIFO lanes among ordinary timers
// and returns the order everything executed in, with the loop's counters.
// A lane's items are due at non-decreasing instants. With reserved unset
// every item is scheduled where it is created, with AtArg; with it set the
// item only takes its sequence number there, waits in the lane's queue, and
// is put on the loop by AtReserved when the item ahead of it fires — so at
// most one entry per lane is ever in the heap. Every choice comes from the
// seed, never from the loop, so both modes see the same program, and every
// event has the same (time, sequence) key in both.
//
// Around the lanes the program keeps the heap busy with what real runs hold:
// timers that fire on the same grid instants, timers stopped in batches
// while lane entries are live, timers rescheduled in
// place, and a Reset with lanes armed, after which a second program runs on
// the same storage.
func runLaneProgram(seed uint64, reserved bool) ([]int, LoopStats) {
	const grid = time.Millisecond
	type item struct {
		id   int
		lane int
		at   Time
		seq  uint64
	}
	type lane struct {
		last  Time // due time of the newest item: the next is no earlier
		armed bool
		q     Queue[item]
	}
	var (
		l      = NewLoop()
		rng    = NewRand(seed, 2)
		log    []int
		lanes  [3]lane
		nextID int
		budget int // items and timers still to create
		fire   func(any)
	)
	id := func() int { nextID++; return nextID }
	add := func(i int) {
		ln := &lanes[i]
		at := max(ln.last, l.Now()).Add(time.Duration(rng.IntN(3)) * grid)
		ln.last = at
		it := &item{id: id(), lane: i, at: at}
		if !reserved {
			l.AtArg(at, fire, it)
			return
		}
		it.seq = l.ReserveSeq()
		if ln.armed {
			ln.q.Push(*it)
			return
		}
		ln.armed = true
		l.AtReserved(it.at, it.seq, fire, it)
	}
	var work func()
	fire = func(arg any) {
		it := arg.(*item)
		ln := &lanes[it.lane]
		if reserved {
			if ln.q.Len() > 0 {
				next := ln.q.Front()
				ln.q.Pop()
				l.AtReserved(next.at, next.seq, fire, &next)
			} else {
				ln.armed = false
			}
		}
		log = append(log, it.id)
		work()
	}
	// work is what any event may do: grow a lane, arm a timer, stop a batch.
	work = func() {
		for k := rng.IntN(4); k > 0 && budget > 0; k-- {
			budget--
			switch rng.IntN(8) {
			case 0, 1, 2, 3:
				add(rng.IntN(len(lanes)))
			case 4:
				n := id()
				l.Schedule(time.Duration(rng.IntN(4))*grid, func() { log = append(log, -n); work() })
			case 5:
				n := id()
				tm := l.Schedule(time.Duration(1+rng.IntN(4))*grid, func() { log = append(log, -n) })
				m := id()
				l.Reschedule(tm, l.Now().Add(time.Duration(rng.IntN(4))*grid), func() { log = append(log, -m); work() })
			default:
				// A batch of dead entries at once while lanes hold live
				// entries on the shared slot.
				var tms []Timer
				for i := 0; i < 70; i++ {
					tms = append(tms, l.Schedule(time.Duration(1+rng.IntN(50))*grid, func() { log = append(log, 0) }))
				}
				for _, tm := range tms {
					tm.Stop()
				}
			}
		}
	}
	run := func() {
		budget = 400
		for budget > 0 {
			work()
			switch rng.IntN(3) {
			case 0:
				l.RunUntil(l.Now().Add(time.Duration(rng.IntN(3)) * grid))
			case 1:
				for n := rng.IntN(5); n > 0 && l.Step(); n-- {
				}
			default:
				l.RunUntilIdle(0)
			}
		}
	}
	run()
	// Reset with whatever is armed and queued; the lanes forget their items
	// as a pooled element's Reinit would.
	l.Reset()
	for i := range lanes {
		lanes[i].last, lanes[i].armed = 0, false
		lanes[i].q.Reset()
	}
	log = append(log, 0)
	run()
	l.RunUntilIdle(0)
	return log, l.Stats()
}

func TestReservedSchedulingMatchesEagerScheduling(t *testing.T) {
	deepest := 0
	for seed := uint64(1); seed <= 200; seed++ {
		want, wantStats := runLaneProgram(seed, false)
		got, gotStats := runLaneProgram(seed, true)
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: execution diverges at step %d of %d", seed, i, len(want))
				}
			}
			t.Fatalf("seed %d: reserved run executed %d extra events", seed, len(got)-len(want))
		}
		if gotStats.Executed != wantStats.Executed || gotStats.Rescheduled != wantStats.Rescheduled {
			t.Fatalf("seed %d: stats %+v, eager %+v", seed, gotStats, wantStats)
		}
		deepest = max(deepest, wantStats.PeakHeapSize-gotStats.PeakHeapSize)
	}
	// The program must reach what it is for: lanes deep enough that holding
	// only their heads shows.
	if deepest < 3 {
		t.Errorf("lanes never held more than %d items behind their heads", deepest)
	}
}

// TestAtReservedBehindFrontierPanics pins the guard: a key execution has
// already passed cannot be scheduled, and the message carries both the key
// and the frontier. The first key reserved after a completed RunUntil equals
// the frontier and is still ahead of execution.
func TestAtReservedBehindFrontierPanics(t *testing.T) {
	l := NewLoop()
	stale := l.ReserveSeq()
	l.At(Time(5), func() {})
	l.RunUntil(Time(10))

	ran := false
	l.AtReserved(Time(10), l.ReserveSeq(), func(any) { ran = true }, nil)
	l.RunUntilIdle(0)
	if !ran {
		t.Fatal("a key equal to the frontier did not run")
	}

	for _, at := range []Time{3, 10} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{"AtReserved", "behind the execution frontier", "(10, 2)"} {
					if !strings.Contains(msg, want) {
						t.Errorf("at %d: panic %q does not mention %q", at, msg, want)
					}
				}
			}()
			l.AtReserved(at, stale, func(any) {}, nil)
		}()
	}
	if l.Len() != 0 {
		t.Fatalf("a refused key left %d events behind", l.Len())
	}
}

// TestAtReservedSteadyStateAllocs: re-arming a lane head allocates nothing
// once the heap has its storage, and takes no slot of its own.
func TestAtReservedSteadyStateAllocs(t *testing.T) {
	l := NewLoop()
	var fn func(any)
	n := 0
	fn = func(any) {
		if n++; n%64 != 0 {
			l.AtReserved(l.Now().Add(time.Microsecond), l.ReserveSeq(), fn, nil)
		}
	}
	round := func() {
		l.AtReserved(l.Now(), l.ReserveSeq(), fn, nil)
		l.RunUntilIdle(0)
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("AtReserved allocates %.2f per 64 events, want 0", avg)
	}
	if len(l.slots) != 1 || len(l.freeSlot) != 0 {
		t.Fatalf("events without a Timer took slots: table %d, free %d", len(l.slots), len(l.freeSlot))
	}
}
