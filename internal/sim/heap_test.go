package sim

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// TestHeapPopOrderMatchesSort drives the inline 4-ary heap with a large
// random schedule, including same-instant ties, and checks the execution
// order is exactly (timestamp, scheduling order) — the contract the old
// container/heap implementation provided.
func TestHeapPopOrderMatchesSort(t *testing.T) {
	l := NewLoop()
	rng := rand.New(rand.NewPCG(1, 2))
	type key struct {
		at  Time
		seq int
	}
	var want []key
	var got []key
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int64N(200)) * Time(time.Millisecond) // dense: many ties
		k := key{at: at, seq: i}
		want = append(want, k)
		l.At(at, func() { got = append(got, k) })
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	l.RunUntilIdle(0)
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d executed as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestHeapInterleavedCancel mixes scheduling, cancellation and execution:
// cancelled events must be skipped, everything else must run in order.
func TestHeapInterleavedCancel(t *testing.T) {
	l := NewLoop()
	rng := rand.New(rand.NewPCG(3, 4))
	ran := map[int]bool{}
	timers := map[int]Timer{}
	cancelled := map[int]bool{}
	for i := 0; i < 2000; i++ {
		i := i
		timers[i] = l.Schedule(time.Duration(rng.Int64N(50))*time.Millisecond, func() { ran[i] = true })
		if rng.IntN(3) == 0 {
			victim := rng.IntN(i + 1)
			if timers[victim].Stop() {
				cancelled[victim] = true
			}
		}
	}
	l.RunUntilIdle(0)
	for i := 0; i < 2000; i++ {
		if cancelled[i] && ran[i] {
			t.Fatalf("event %d ran after Stop reported cancellation", i)
		}
		if !cancelled[i] && !ran[i] {
			t.Fatalf("event %d never ran and was never cancelled", i)
		}
	}
}

// TestAtArg checks the allocation-free scheduling form: the argument is
// delivered to the shared callback, ordering is unchanged, and Timers work.
func TestAtArg(t *testing.T) {
	l := NewLoop()
	var got []int
	deliver := func(arg any) { got = append(got, *arg.(*int)) }
	vals := []int{10, 20, 30}
	l.AtArg(Time(2*time.Millisecond), deliver, &vals[1])
	l.ScheduleArg(time.Millisecond, deliver, &vals[0])
	tm := l.AtArg(Time(3*time.Millisecond), deliver, &vals[2])
	stopped := l.AtArg(Time(4*time.Millisecond), deliver, &vals[2])
	if !stopped.Stop() {
		t.Fatal("Stop on pending AtArg timer returned false")
	}
	if tm.Pending() != true {
		t.Fatal("AtArg timer not pending")
	}
	l.RunUntilIdle(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("AtArg delivery = %v, want [10 20 30]", got)
	}
}

// TestScheduleSteadyStateAllocs is the zero-allocation contract of the
// event fast path: once the heap and slot table have grown, a
// schedule/cancel/run cycle allocates nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	l := NewLoop()
	noop := func(any) {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			l.AtArg(l.Now().Add(time.Duration(i%7)*time.Microsecond), noop, nil)
		}
		tm := l.ScheduleArg(time.Second, noop, nil)
		tm.Stop()
		l.RunUntilIdle(0)
	}
	cycle() // warm capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state scheduling allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestClosureFormSteadyStateAllocs: At and Reschedule store a long-lived
// func() as the arg of one shared callback, and boxing a func value into an
// interface does not allocate, so the closure forms cost no more than the
// arg forms once the heap has its storage.
func TestClosureFormSteadyStateAllocs(t *testing.T) {
	l := NewLoop()
	noop := func() {}
	var tm Timer
	cycle := func() {
		for i := 0; i < 16; i++ {
			l.At(l.Now().Add(time.Duration(i%5)*time.Microsecond), noop)
			tm = l.Reschedule(tm, l.Now().Add(time.Duration(i%3)*time.Microsecond), noop)
		}
		l.RunUntilIdle(0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("closure-form At and Reschedule allocate %.1f objects per cycle, want 0", allocs)
	}
}

// TestEventSize pins the heap entry every sift moves: two key words, the
// callback, its interface arg and the Timer slot.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event is %d bytes, want 48", got)
	}
}

// TestLoopReset checks that Reset restores a loop to fresh-start state and
// invalidates every outstanding timer handle.
func TestLoopReset(t *testing.T) {
	l := NewLoop()
	fired := false
	stale := l.Schedule(time.Millisecond, func() { fired = true })
	l.RunFor(10 * time.Millisecond)
	leftover := l.Schedule(time.Hour, func() { t.Fatal("leftover event survived Reset") })

	l.Reset()
	if l.Now() != 0 || l.Len() != 0 || l.Processed() != 0 {
		t.Fatalf("Reset left state: now=%v len=%d processed=%d", l.Now(), l.Len(), l.Processed())
	}
	if stale.Pending() || leftover.Pending() {
		t.Fatal("pre-Reset timers still pending")
	}
	if stale.Stop() || leftover.Stop() {
		t.Fatal("pre-Reset timers stoppable after Reset")
	}

	// The reset loop must schedule and run exactly like a fresh one, and
	// stale handles must not be able to cancel new events that reuse their
	// slots.
	count := 0
	for i := 0; i < 100; i++ {
		l.Schedule(time.Duration(i)*time.Microsecond, func() { count++ })
	}
	leftover.Stop()
	stale.Stop()
	l.RunUntilIdle(0)
	if count != 100 {
		t.Fatalf("post-Reset loop ran %d events, want 100 (stale Stop cancelled one?)", count)
	}
	if !fired {
		t.Fatal("pre-Reset event never fired before Reset")
	}
}

// TestRandReseed checks Reseed rewinds a stream to its NewRand state.
func TestRandReseed(t *testing.T) {
	a := NewRand(77, 88)
	var first [8]uint64
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(77, 88)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Reseed = %d, want %d", i, got, first[i])
		}
	}
}

// refLoop is the queue's specification, for the differential below: a slice
// of entries kept sorted by (at, seq), the earliest removed before its
// callback runs. It keeps a stopped entry until it reaches the front, as the
// Loop does, because Len, PeakHeapSize and Reschedule's revival are all
// defined over such entries.
type refLoop struct {
	now          Time
	seq          uint64
	evs          []*refEvent
	dead         int
	frontAt      Time
	frontSeq     uint64
	ran, resched uint64
	peak         int
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	dead   bool
	queued bool
	gen    int // bumped by Reschedule: older handles go stale
}

type refTimer struct {
	ev  *refEvent
	gen int
}

func (r *refLoop) insert(ev *refEvent) {
	i := sort.Search(len(r.evs), func(i int) bool {
		e := r.evs[i]
		return e.at > ev.at || (e.at == ev.at && e.seq > ev.seq)
	})
	r.evs = slices.Insert(r.evs, i, ev)
	ev.queued = true
}

func (r *refLoop) push(t Time, fn func()) refTimer {
	ev := &refEvent{at: max(t, r.now), seq: r.seq, fn: fn}
	r.seq++
	r.insert(ev)
	r.peak = max(r.peak, len(r.evs))
	return refTimer{ev, 0}
}

func (r *refLoop) atReserved(at Time, seq uint64, fn func()) {
	r.insert(&refEvent{at: at, seq: seq, fn: fn})
	r.peak = max(r.peak, len(r.evs))
}

func (r *refLoop) valid(tm refTimer) bool {
	return tm.ev != nil && tm.ev.queued && tm.ev.gen == tm.gen
}

func (r *refLoop) stop(tm refTimer) bool {
	if !r.valid(tm) || tm.ev.dead {
		return false
	}
	tm.ev.dead = true
	r.dead++
	return true
}

func (r *refLoop) reschedule(tm refTimer, t Time, fn func()) refTimer {
	if !r.valid(tm) {
		return r.push(t, fn)
	}
	ev := tm.ev
	if ev.dead {
		ev.dead = false
		r.dead--
	}
	r.evs = slices.DeleteFunc(r.evs, func(e *refEvent) bool { return e == ev })
	ev.at, ev.seq, ev.fn = max(t, r.now), r.seq, fn
	ev.gen++
	r.seq++
	r.insert(ev)
	r.resched++
	return refTimer{ev, ev.gen}
}

func (r *refLoop) pop() *refEvent {
	ev := r.evs[0]
	r.evs = r.evs[1:]
	ev.queued = false
	if ev.dead {
		r.dead--
	}
	return ev
}

func (r *refLoop) nextEventAt() (Time, bool) {
	for len(r.evs) > 0 {
		if !r.evs[0].dead {
			return r.evs[0].at, true
		}
		r.pop()
	}
	return 0, false
}

func (r *refLoop) step() bool {
	if _, ok := r.nextEventAt(); !ok {
		return false
	}
	ev := r.pop()
	r.now, r.frontAt, r.frontSeq = ev.at, ev.at, ev.seq
	ev.fn()
	r.ran++
	return true
}

func (r *refLoop) runUntil(t Time) {
	for {
		if at, ok := r.nextEventAt(); !ok || at > t {
			break
		}
		r.step()
	}
	if t >= r.now {
		r.now, r.frontAt, r.frontSeq = t, t, r.seq
	}
}

func (r *refLoop) reset() {
	for _, ev := range r.evs {
		ev.queued = false
	}
	*r = refLoop{}
}

// queueUnderTest is what the differential's program sees of either loop.
// Timers are opaque to it.
type queueUnderTest interface {
	Now() Time
	Len() int
	At(t Time, fn func()) any
	AtArg(t Time, fn func()) any
	ReserveSeq() uint64
	AtReserved(at Time, seq uint64, fn func())
	Reschedule(tm any, t Time, fn func()) any
	Stop(tm any) bool
	Pending(tm any) bool
	NextEventAt() (Time, bool)
	Step() bool
	RunUntil(t Time)
	Reset()
	Stats() LoopStats
}

type refQueue struct{ r refLoop }

func (q *refQueue) Now() Time                                 { return q.r.now }
func (q *refQueue) Len() int                                  { return len(q.r.evs) - q.r.dead }
func (q *refQueue) At(t Time, fn func()) any                  { return q.r.push(t, fn) }
func (q *refQueue) AtArg(t Time, fn func()) any               { return q.r.push(t, fn) }
func (q *refQueue) AtReserved(at Time, seq uint64, fn func()) { q.r.atReserved(at, seq, fn) }
func (q *refQueue) Stop(tm any) bool                          { return q.r.stop(tm.(refTimer)) }
func (q *refQueue) NextEventAt() (Time, bool)                 { return q.r.nextEventAt() }
func (q *refQueue) Step() bool                                { return q.r.step() }
func (q *refQueue) RunUntil(t Time)                           { q.r.runUntil(t) }
func (q *refQueue) Reset()                                    { q.r.reset() }
func (q *refQueue) ReserveSeq() uint64                        { q.r.seq++; return q.r.seq - 1 }
func (q *refQueue) Reschedule(tm any, t Time, fn func()) any {
	return q.r.reschedule(tm.(refTimer), t, fn)
}
func (q *refQueue) Pending(tm any) bool {
	return q.r.valid(tm.(refTimer)) && !tm.(refTimer).ev.dead
}
func (q *refQueue) Stats() LoopStats {
	return LoopStats{Executed: q.r.ran, Rescheduled: q.r.resched, PeakHeapSize: q.r.peak}
}

// realQueue drives a Loop.
type realQueue struct{ l *Loop }

func call(arg any) { arg.(func())() }

func (q *realQueue) Now() Time                                 { return q.l.Now() }
func (q *realQueue) Len() int                                  { return q.l.Len() }
func (q *realQueue) At(t Time, fn func()) any                  { return q.l.At(t, fn) }
func (q *realQueue) AtArg(t Time, fn func()) any               { return q.l.AtArg(t, call, fn) }
func (q *realQueue) ReserveSeq() uint64                        { return q.l.ReserveSeq() }
func (q *realQueue) AtReserved(at Time, seq uint64, fn func()) { q.l.AtReserved(at, seq, call, fn) }
func (q *realQueue) Pending(tm any) bool                       { return tm.(Timer).Pending() }
func (q *realQueue) NextEventAt() (Time, bool)                 { return q.l.NextEventAt() }
func (q *realQueue) Step() bool                                { return q.l.Step() }
func (q *realQueue) RunUntil(t Time)                           { q.l.RunUntil(t) }
func (q *realQueue) Reset()                                    { q.l.Reset() }
func (q *realQueue) Stats() LoopStats                          { return q.l.Stats() }
func (q *realQueue) Reschedule(tm any, t Time, fn func()) any {
	return q.l.Reschedule(tm.(Timer), t, fn)
}
func (q *realQueue) Stop(tm any) bool { return tm.(Timer).Stop() }

// runQueueProgram runs the program a seed determines on q and returns a log
// of everything the program could observe: which event ran, and Now, Len and
// every answer the queue gave, in order. Callbacks schedule nothing, one
// event or several — at the current instant and later, with and without
// Timers, under keys reserved just now and keys reserved events ago — stop
// and move their own and each other's Timers, question the queue, run it
// from inside themselves, reset it, and stop crowds of Timers at a time,
// before and after scheduling anything themselves.
func runQueueProgram(seed uint64, q queueUnderTest) []int64 {
	const grid = time.Millisecond
	type key struct {
		at  Time
		seq uint64
	}
	var (
		rng      = NewRand(seed, 3)
		log      []int64
		timers   []any
		idle     []any // armed far out to be stopped in bulk
		reserved []key // taken earlier, for events scheduled late
		nextID   int64
		depth    int // callbacks on the stack
		budget   = 600
		event    func(own *any) func()
	)
	note := func(vs ...int64) { log = append(log, vs...) }
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	later := func() Time { return q.Now().Add(time.Duration(rng.IntN(4)) * grid) }
	// arm schedules one event, one of the four ways.
	arm := func() {
		own := new(any)
		fn := event(own)
		switch rng.IntN(4) {
		case 0:
			*own = q.At(later()-Time(grid), fn) // may be behind the clock
		case 1:
			*own = q.AtArg(later(), fn)
		case 2:
			q.AtReserved(later(), q.ReserveSeq(), fn)
		default:
			// A key from earlier, if one is still ahead of execution: strictly
			// later than now is, whatever has run since it was taken.
			for len(reserved) > 0 {
				k := reserved[0]
				reserved = reserved[1:]
				if k.at > q.Now() {
					q.AtReserved(k.at, k.seq, fn)
					return
				}
			}
			*own = q.At(q.Now(), fn)
		}
		if *own != nil {
			timers = append(timers, *own)
		}
	}
	act := func(own *any) {
		switch rng.IntN(12) {
		case 0, 1, 2:
			arm()
		case 3:
			reserved = append(reserved, key{later() + Time(grid), q.ReserveSeq()})
		case 4:
			if *own != nil {
				note(-1, flag(q.Pending(*own)), flag(q.Stop(*own)))
			}
		case 5:
			if len(timers) > 0 {
				tm := timers[rng.IntN(len(timers))]
				note(-2, flag(q.Pending(tm)), flag(q.Stop(tm)), flag(q.Pending(tm)))
			}
		case 6:
			if len(timers) > 0 {
				i := rng.IntN(len(timers))
				timers[i] = q.Reschedule(timers[i], later(), event(&timers[i]))
			}
		case 7:
			if *own != nil {
				*own = q.Reschedule(*own, later(), event(own))
			}
		case 8:
			at, ok := q.NextEventAt()
			note(-3, int64(at), flag(ok), int64(q.Len()))
		case 9:
			if depth < 3 {
				if rng.IntN(2) == 0 {
					note(-4, flag(q.Step()))
				} else {
					q.RunUntil(q.Now().Add(time.Duration(rng.IntN(3)-1) * grid))
				}
				note(-5, int64(q.Now()), int64(q.Len()))
			}
		case 10:
			// Arm, or stop, a crowd: whichever callback stops it may not
			// have scheduled anything yet, and stops it with its own entry
			// still at the root.
			if len(idle) == 0 {
				for i := 0; i < 150; i++ {
					idle = append(idle, q.At(q.Now().Add(time.Hour+time.Duration(rng.IntN(50))*grid), func() { note(-6) }))
				}
			} else {
				for _, tm := range idle {
					q.Stop(tm)
				}
				idle = idle[:0]
			}
		default:
			if rng.IntN(40) == 0 {
				q.Reset()
				timers, idle, reserved = timers[:0], idle[:0], reserved[:0]
				note(-7, int64(q.Now()), int64(q.Len()))
			}
		}
	}
	event = func(own *any) func() {
		nextID++
		id := nextID
		return func() {
			depth++
			note(id, int64(q.Now()), int64(q.Len()))
			for k := rng.IntN(4); k > 0 && budget > 0; k-- {
				budget--
				act(own)
			}
			note(int64(q.Len()))
			depth--
		}
	}
	outside := new(any)
	for budget > 0 {
		for k := 1 + rng.IntN(3); k > 0; k-- {
			budget--
			act(outside)
		}
		switch rng.IntN(3) {
		case 0:
			q.RunUntil(later())
		case 1:
			for n := rng.IntN(6); n > 0 && q.Step(); n-- {
			}
		default:
			for n := 0; n < 2000 && q.Step(); n++ {
			}
		}
		note(-8, int64(q.Now()), int64(q.Len()))
	}
	st := q.Stats()
	return append(log, int64(st.Executed), int64(st.Rescheduled), int64(st.PeakHeapSize))
}

// TestLoopMatchesReferenceQueue holds the Loop to the reference over random
// programs: same events in the same order at the same times, the same Len at
// every step, the same answer to every question, the same Stats.
func TestLoopMatchesReferenceQueue(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		got, want := runQueueProgram(seed, &realQueue{l: NewLoop()}), runQueueProgram(seed, &refQueue{})
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					lo := max(0, i-8)
					t.Fatalf("seed %d: logs diverge at entry %d of %d:\nloop      ...%v\nreference ...%v",
						seed, i, len(want), got[lo:min(len(got), i+4)], want[lo:min(len(want), i+4)])
				}
			}
			t.Fatalf("seed %d: the loop logged %d entries more than the reference", seed, len(got)-len(want))
		}
	}
}
