// Package sim implements a deterministic discrete-event simulator used as
// the time base for every experiment in this repository.
//
// The simulator models virtual time as nanoseconds since the start of a run.
// Components schedule callbacks on a Loop; the Loop executes them in
// timestamp order (ties broken by scheduling order), advancing the virtual
// clock as it goes. Nothing in the simulator sleeps or consults the wall
// clock, so a run that models 20 days of probing completes in milliseconds
// and is exactly reproducible given the same seed.
//
// The event queue is a slice-backed inline 4-ary min-heap of event values:
// scheduling allocates nothing on the steady-state path, which matters when
// a campaign pumps millions of events per second through the probe engine.
// Timer handles are generation-counted indexes into a free-listed slot
// table, so cancelling is O(1) without keeping per-event pointers alive.
//
// Most events schedule their successor — a link delivery arms the next one,
// a segment's arrival sends an ACK — so the queue does not remove an event
// before running it. While a callback runs, its event's entry is still at
// the root of the heap, vacant: it has given up its Timer slot, Len and the
// counters no longer include it, and the first event the callback schedules
// is stored over it and sifted down, one pass where a removal followed by an
// insert would make two. A callback that schedules nothing has the entry
// removed when it returns. Anything that needs the true root from inside a
// callback — Step, StepBefore, RunUntil and its relatives, NextEventAt and
// Reset — removes the vacant entry first, so none of this is visible through
// the exported surface.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation. The zero Time is the moment the Loop was created.
type Time int64

// Add returns the Time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the elapsed duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time as an elapsed duration, e.g. "1.5ms".
func (t Time) String() string { return time.Duration(t).String() }

// A Timer is a handle to a scheduled callback. It can be stopped before it
// fires. The zero Timer is inert. Timers are small values; copying them is
// fine, and a Timer outliving its event (or a Loop.Reset) is harmlessly
// inert because its generation no longer matches.
type Timer struct {
	l    *Loop
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the call prevented the callback
// from firing. Stopping an already-fired or already-stopped timer is a no-op.
func (t Timer) Stop() bool {
	if t.l == nil {
		return false
	}
	s := &t.l.slots[t.slot]
	if s.gen != t.gen || s.heapIdx < 0 {
		return false
	}
	ev := &t.l.events[s.heapIdx]
	if ev.fn == nil {
		return false
	}
	ev.fn, ev.arg = nil, nil
	t.l.dead++
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	if t.l == nil {
		return false
	}
	s := &t.l.slots[t.slot]
	if s.gen != t.gen || s.heapIdx < 0 {
		return false
	}
	return t.l.events[s.heapIdx].fn != nil
}

// event is one scheduled callback, fn(arg); a nil fn marks a cancelled event
// awaiting drain. A pointer-shaped arg boxed into an interface does not
// allocate, so elements that forward frames schedule one long-lived callback
// instead of a fresh closure per frame. The closure forms (At, Schedule,
// Reschedule) store their func() as the arg of runFunc: a func value is
// pointer-shaped too.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	fn   func(any)
	arg  any
	slot int32 // Timer slot, or noSlot for an event scheduled by AtReserved
}

// noSlot is the slot shared by every event no Timer refers to (AtReserved).
// No Timer is ever issued for it and it is never on the free list, so the
// heap index the sifts write there is never read: an event without a handle
// takes no slot of its own and costs the sifts no branch.
const noSlot = 0

// slotState backs one Timer handle. heapIdx tracks where the event
// currently sits in the heap (-1 once it has fired or drained); gen
// invalidates stale handles when the slot is reused.
type slotState struct {
	heapIdx int32
	gen     uint32
}

// Loop is a discrete-event scheduler. It is not safe for concurrent use;
// the entire simulation, including all network elements and the prober,
// runs single-threaded on one Loop. Its methods may be called from inside a
// callback it is running, Step and Reset included; see the package comment
// for the vacant root that makes scheduling from a callback cheap.
//
// Events run in (time, sequence) key order, and the loop keeps the key it
// has run up to as an execution frontier that never moves backwards. That
// invariant is what ReserveSeq, Passed and AtReserved rest on. They are for
// elements whose events retire in FIFO order (a link's departures and
// deliveries), which need not keep one heap entry per queued item: the
// element takes each item's sequence number with ReserveSeq at the point it
// would have scheduled the event, keeps the (at, seq) key in a queue of its
// own, and then either only asks whether the key's moment has gone by
// (Passed — when nothing happens at it but bookkeeping) or puts just the
// head of its queue on the loop under that original key (AtReserved),
// re-arming the next head when it fires. Every event, the element's and
// everyone else's, then has the key, and so the place in the execution
// order, it had when each item was scheduled on its own.
type Loop struct {
	now    Time
	events []event // inline 4-ary min-heap ordered by (at, seq)
	seq    uint64
	ran    uint64
	dead   int // cancelled events still occupying heap entries

	// vacant is 1 while the event at events[0] is running, 0 otherwise. The
	// running event's entry is left in the heap, no longer a logical entry
	// of it, until an event scheduled from the callback takes its place or
	// the callback returns; its stale key still orders before every other.
	vacant int

	// frontAt/frontSeq is the execution frontier: every (at, seq) key
	// strictly below it belongs to an event that has already run, or would
	// have had it been scheduled. See Passed.
	frontAt  Time
	frontSeq uint64

	resched  uint64
	peakHeap int

	slots    []slotState
	freeSlot []int32
}

// LoopStats is a snapshot of the loop's internal counters, exposed for the
// telemetry layer: callbacks executed, in-place timer reschedules, and the
// deepest heap observed. All are cumulative since the last Reset.
type LoopStats struct {
	Executed     uint64
	Rescheduled  uint64
	PeakHeapSize int
}

// Stats returns the loop's counters since the last Reset.
func (l *Loop) Stats() LoopStats {
	return LoopStats{
		Executed:     l.ran,
		Rescheduled:  l.resched,
		PeakHeapSize: l.peakHeap,
	}
}

// NewLoop returns a Loop with the clock at time zero and no pending events.
// The zero Loop is not usable: the slot table starts with noSlot in place.
func NewLoop() *Loop { return &Loop{slots: []slotState{noSlot: {heapIdx: -1}}} }

// Reset returns the loop to its initial state — clock at zero, no pending
// events, counters cleared — while keeping the heap and slot-table capacity
// for reuse. Every outstanding Timer is invalidated (its slot generation is
// bumped), so handles from the previous run can never cancel events of the
// next one. A Reset loop is indistinguishable from a NewLoop one.
func (l *Loop) Reset() {
	l.settle()
	for i := range l.events {
		ev := &l.events[i]
		l.slots[ev.slot].gen++
		ev.fn, ev.arg = nil, nil
	}
	l.events = l.events[:0]
	l.freeSlot = l.freeSlot[:0]
	for i := noSlot + 1; i < len(l.slots); i++ {
		l.slots[i].heapIdx = -1
		l.freeSlot = append(l.freeSlot, int32(i))
	}
	l.now, l.seq, l.ran, l.dead = 0, 0, 0, 0
	l.frontAt, l.frontSeq = 0, 0
	l.resched, l.peakHeap = 0, 0
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Len returns the number of live pending events. Stopped timers whose heap
// entries have not yet been drained are not counted: Len answers "how much
// work is still scheduled", which is what idle detection and pending-event
// assertions mean by it.
func (l *Loop) Len() int { return len(l.events) - l.dead - l.vacant }

// Processed returns the total number of callbacks executed so far.
func (l *Loop) Processed() uint64 { return l.ran }

// Schedule arranges for fn to run after delay d of virtual time. A negative
// delay is treated as zero (the event runs at the current instant, after any
// earlier-scheduled events at the same instant). It returns a Timer that can
// cancel the callback.
func (l *Loop) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now.Add(d), fn)
}

// ScheduleArg is Schedule for a long-lived callback taking an argument; see
// AtArg.
func (l *Loop) ScheduleArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return l.AtArg(l.now.Add(d), fn, arg)
}

// At arranges for fn to run at absolute virtual time t. Times in the past
// are clamped to the present.
func (l *Loop) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	return l.push(t, runFunc, fn)
}

// runFunc is the one callback behind every closure-form event: its arg is
// the func() to call.
func runFunc(fn any) { fn.(func())() }

// AtArg arranges for fn(arg) to run at absolute virtual time t. Unlike At
// with a fresh closure, a long-lived fn plus a pointer-shaped arg schedules
// without allocating — the fast path network elements use to forward frames.
func (l *Loop) AtArg(t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: AtArg called with nil callback")
	}
	return l.push(t, fn, arg)
}

// Reschedule moves a timer to fire fn at absolute time t instead, re-sifting
// the existing heap entry in place — one sift instead of the lazy cancel, the
// dead-entry drain and the fresh push that Stop+At cost. If tm no longer has
// a heap entry (it fired, drained, or belongs to a previous Reset), fn is
// simply scheduled fresh. The returned Timer replaces tm; older copies of tm
// are invalidated exactly as Stop+At would leave them, and the rescheduled
// event takes a fresh sequence number, so execution order is identical to
// tm.Stop() followed by At(t, fn).
func (l *Loop) Reschedule(tm Timer, t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: Reschedule called with nil callback")
	}
	return l.reschedule(tm, t, runFunc, fn)
}

// RescheduleArg is Reschedule for the allocation-free callback form of
// AtArg.
func (l *Loop) RescheduleArg(tm Timer, t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: RescheduleArg called with nil callback")
	}
	return l.reschedule(tm, t, fn, arg)
}

// reschedule retargets tm's heap entry when one still exists (live or
// stopped-but-undrained), falling back to a plain push.
func (l *Loop) reschedule(tm Timer, t Time, fn func(any), arg any) Timer {
	if tm.l != l {
		return l.push(t, fn, arg)
	}
	s := &l.slots[tm.slot]
	if s.gen != tm.gen || s.heapIdx < 0 {
		return l.push(t, fn, arg)
	}
	if t < l.now {
		t = l.now
	}
	i := s.heapIdx
	ev := &l.events[i]
	if ev.fn == nil {
		l.dead-- // reviving a stopped entry in place
	}
	s.gen++ // invalidate stale handles, as Stop+At would
	seq := l.seq
	l.seq++
	// The entry becomes a hole and is written once, where the hole stops.
	// The new sequence number is the highest yet, so the key has grown
	// unless the time has come forward, and the hole moves one way only.
	var j int32
	if t < ev.at {
		j = l.holeUp(i, t, seq)
	} else {
		j = l.holeDown(i, int32(len(l.events)), t, seq)
	}
	ev = &l.events[j]
	ev.at, ev.seq, ev.fn, ev.arg, ev.slot = t, seq, fn, arg, tm.slot
	s.heapIdx = j
	l.resched++
	return Timer{l: l, slot: tm.slot, gen: s.gen}
}

// push allocates a slot and stores the new event where it belongs.
func (l *Loop) push(t Time, fn func(any), arg any) Timer {
	if t < l.now {
		t = l.now
	}
	var slot int32
	if n := len(l.freeSlot); n > 0 {
		slot = l.freeSlot[n-1]
		l.freeSlot = l.freeSlot[:n-1]
	} else {
		slot = int32(len(l.slots))
		l.slots = append(l.slots, slotState{})
	}
	seq := l.seq
	l.seq++
	i := l.open(t, seq)
	ev := &l.events[i]
	ev.at, ev.seq, ev.fn, ev.arg, ev.slot = t, seq, fn, arg, slot
	s := &l.slots[slot]
	s.heapIdx = i
	return Timer{l: l, slot: slot, gen: s.gen}
}

// ReserveSeq consumes and returns the sequence number the next scheduled
// event would have been given, for a key to hand to Passed or AtReserved.
func (l *Loop) ReserveSeq() uint64 {
	s := l.seq
	l.seq++
	return s
}

// Passed reports whether an event keyed (at, seq), with seq from ReserveSeq,
// would already have run. It compares the key against the execution
// frontier, which only ever moves forward: Step sets it to the key of the
// event it runs — so inside a callback, and between Steps, exactly the keys
// ordered before the last event run have passed — and a completed
// RunUntil(t) moves it to (t, next sequence number), past every key reserved
// so far at or before t and short of any reserved afterwards. The frontier
// is therefore right for a caller outside any event (Probe.SendView feeds
// frames between Steps) as well as inside one.
func (l *Loop) Passed(at Time, seq uint64) bool {
	if at != l.frontAt {
		return at < l.frontAt
	}
	return seq < l.frontSeq
}

// AtReserved arranges for fn(arg) to run at time at under a sequence number
// taken earlier with ReserveSeq, exactly where an AtArg at the moment of the
// reservation would have put it. It returns no Timer — the event cannot be
// stopped or rescheduled — and so takes no slot: nothing comes off the free
// list and nothing goes back when it fires.
//
// Scheduling late is only sound while the key is still ahead of execution:
// a key the frontier has passed would run out of order and turn the clock
// back, which is a bug in the caller, never a matter of input, and panics. A
// FIFO element that re-arms from inside its own event always has a later
// sequence number at a time no earlier than the one running, so it cannot
// get here.
func (l *Loop) AtReserved(at Time, seq uint64, fn func(any), arg any) {
	if fn == nil {
		panic("sim: AtReserved called with nil callback")
	}
	if l.Passed(at, seq) {
		panic(fmt.Sprintf("sim: AtReserved key (%d, %d) is behind the execution frontier (%d, %d)",
			int64(at), seq, int64(l.frontAt), l.frontSeq))
	}
	ev := &l.events[l.open(at, seq)]
	ev.at, ev.seq, ev.fn, ev.arg, ev.slot = at, seq, fn, arg, noSlot
}

const heapArity = 4

// before orders two (at, seq) keys: by timestamp, then scheduling order. Keys
// are unique per event, so this is a total order.
func before(at Time, seq uint64, bat Time, bseq uint64) bool {
	return at < bat || (at == bat && seq < bseq)
}

// The queue never swaps and never writes an entry it is about to move. An
// insert carries its (at, seq) key in registers and moves a hole — up from a
// new last index, down from a vacant root — shifting each entry it passes
// one level the other way; the caller then stores the event's fields once,
// at the index the hole came to rest. Pop order is the total order of the
// keys whatever the shape of the heap.

// open makes room for an event keyed (at, seq) and returns the index the
// caller must store it at. The first event scheduled while the root is
// vacant takes the root's place, so the pop that preceded it and this insert
// cost one sift-down between them.
func (l *Loop) open(at Time, seq uint64) int32 {
	if l.vacant != 0 {
		// The heap is back to a size it had when the running event was
		// still queued, which peakHeap saw then.
		l.vacant = 0
		return l.holeDown(0, int32(len(l.events)), at, seq)
	}
	n := len(l.events)
	if n < cap(l.events) {
		// The entry exposed holds no references (removeRoot and Reset
		// clear what they drop) and the caller overwrites it.
		l.events = l.events[:n+1]
	} else {
		l.events = append(l.events, event{})
	}
	if n+1 > l.peakHeap {
		l.peakHeap = n + 1
	}
	return l.holeUp(int32(n), at, seq)
}

// holeUp moves a hole at i towards the root until its parent's key is not
// after (at, seq), and returns where it stopped. A vacant root's stale key
// is that of the running event, which is before every key in the heap, so a
// hole never climbs into it.
func (l *Loop) holeUp(i int32, at Time, seq uint64) int32 {
	for i > 0 {
		p := (i - 1) / heapArity
		pe := &l.events[p]
		if before(pe.at, pe.seq, at, seq) {
			break
		}
		l.events[i] = *pe
		l.slots[pe.slot].heapIdx = i
		i = p
	}
	return i
}

// holeDown moves a hole at i in the heap events[:n] away from the root
// until no child's key is before (at, seq), and returns where it stopped.
func (l *Loop) holeDown(i, n int32, at Time, seq uint64) int32 {
	evs := l.events[:n]
	for {
		first := heapArity*i + 1
		if first >= n {
			return i
		}
		last := min(first+heapArity, n)
		m := first
		mat, mseq := evs[first].at, evs[first].seq
		for c := first + 1; c < last; c++ {
			if cat, cseq := evs[c].at, evs[c].seq; before(cat, cseq, mat, mseq) {
				m, mat, mseq = c, cat, cseq
			}
		}
		if before(at, seq, mat, mseq) {
			return i
		}
		evs[i] = evs[m]
		l.slots[evs[i].slot].heapIdx = i
		i = m
	}
}

// removeRoot takes the root entry out of the heap: the last entry fills the
// hole it leaves, sifted down from the root. The root's slot is the
// caller's business.
func (l *Loop) removeRoot() {
	n := int32(len(l.events)) - 1
	last := &l.events[n]
	if n > 0 {
		i := l.holeDown(0, n, last.at, last.seq)
		l.events[i] = *last
		l.slots[last.slot].heapIdx = i
	}
	// Release only the reference-holding fields of the dropped entry; the
	// stale scalars are overwritten by the next insert at this index.
	last.fn, last.arg = nil, nil
	l.events = l.events[:n]
}

// settle removes a vacant root, so that events[0] is the earliest entry
// again. Everything that reads or rebuilds the heap from outside a plain
// insert calls it first.
func (l *Loop) settle() {
	if l.vacant != 0 {
		l.vacant = 0
		l.removeRoot()
	}
}

// releaseSlot returns an event's Timer slot to the free list and invalidates
// every handle to it.
func (l *Loop) releaseSlot(slot int32) {
	if slot == noSlot {
		return
	}
	s := &l.slots[slot]
	s.heapIdx = -1
	s.gen++
	l.freeSlot = append(l.freeSlot, slot)
}

// peek returns the timestamp of the earliest live event, settling a vacant
// root and draining cancelled events from the head of the heap as it looks.
func (l *Loop) peek() (Time, bool) {
	l.settle()
	for len(l.events) > 0 {
		ev := &l.events[0]
		if ev.fn != nil {
			return ev.at, true
		}
		l.dead--
		l.releaseSlot(ev.slot)
		l.removeRoot()
	}
	return 0, false
}

// run executes the live event at the root, which peek has just found. The
// event's Timer slot is released before the callback — so inside it the
// event's own Timer is neither pending nor stoppable, and the slot is the
// first a new Timer takes — but its heap entry stays where it is, vacant,
// for the first event the callback schedules to take over (see open); only
// a callback that schedules nothing pays for the removal.
func (l *Loop) run() {
	root := &l.events[0]
	at, seq, fn, arg := root.at, root.seq, root.fn, root.arg
	l.releaseSlot(root.slot)
	l.vacant = 1
	l.now = at
	l.frontAt, l.frontSeq = at, seq
	fn(arg)
	l.ran++
	l.settle()
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed. Cancelled events are
// skipped without being counted.
func (l *Loop) Step() bool {
	if _, ok := l.peek(); !ok {
		return false
	}
	l.run()
	return true
}

// StepBefore executes the earliest pending event if it is due at or before
// t, reporting whether one ran. It is the fused peek+Step synchronous
// drivers pump the loop with — one heap-root inspection per event instead
// of two.
func (l *Loop) StepBefore(t Time) bool {
	if at, ok := l.peek(); !ok || at > t {
		return false
	}
	l.run()
	return true
}

// RunUntil executes events up to and including virtual time t, then advances
// the clock to exactly t. Events scheduled during execution are honored if
// they fall within the horizon. Completing moves the execution frontier (see
// Passed) to t as well, unless t is already behind the clock.
func (l *Loop) RunUntil(t Time) {
	for l.StepBefore(t) {
	}
	if t >= l.now {
		l.now = t
		l.frontAt, l.frontSeq = t, l.seq
	}
}

// RunFor is RunUntil(Now()+d).
func (l *Loop) RunFor(d time.Duration) { l.RunUntil(l.now.Add(d)) }

// RunUntilIdle executes events until the queue is empty. It panics after
// maxEvents callbacks as a guard against runaway feedback loops; pass 0 for
// the default of 100 million.
func (l *Loop) RunUntilIdle(maxEvents uint64) {
	if maxEvents == 0 {
		maxEvents = 100_000_000
	}
	start := l.ran
	for l.Step() {
		if l.ran-start > maxEvents {
			panic(fmt.Sprintf("sim: RunUntilIdle exceeded %d events at t=%s", maxEvents, l.now))
		}
	}
}

// NextEventAt returns the timestamp of the earliest pending event, if any.
// Synchronous drivers (the probe transport) use it to decide whether pumping
// the loop can make progress before a deadline.
func (l *Loop) NextEventAt() (Time, bool) { return l.peek() }
