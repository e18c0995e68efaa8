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
	if ev.fn == nil && ev.afn == nil {
		return false
	}
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	t.l.dead++
	t.l.maybeCompact()
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
	ev := &t.l.events[s.heapIdx]
	return ev.fn != nil || ev.afn != nil
}

// event is one scheduled callback. Exactly one of fn and afn is non-nil for
// a live event; both nil marks a cancelled event awaiting drain. afn+arg is
// the allocation-free form: a pointer-shaped arg boxed into an interface
// does not allocate, so elements that forward frames can schedule with one
// long-lived callback instead of a fresh closure per frame.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	fn   func()
	afn  func(any)
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
// runs single-threaded on one Loop.
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

	// frontAt/frontSeq is the execution frontier: every (at, seq) key
	// strictly below it belongs to an event that has already run, or would
	// have had it been scheduled. See Passed.
	frontAt  Time
	frontSeq uint64

	resched     uint64
	compactions uint64
	peakHeap    int

	slots    []slotState
	freeSlot []int32
}

// LoopStats is a snapshot of the loop's internal counters, exposed for the
// telemetry layer: callbacks executed, in-place timer reschedules, dead-entry
// heap compactions, and the deepest heap observed. All are cumulative since
// the last Reset.
type LoopStats struct {
	Executed     uint64
	Rescheduled  uint64
	Compactions  uint64
	PeakHeapSize int
}

// Stats returns the loop's counters since the last Reset.
func (l *Loop) Stats() LoopStats {
	return LoopStats{
		Executed:     l.ran,
		Rescheduled:  l.resched,
		Compactions:  l.compactions,
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
	for i := range l.events {
		ev := &l.events[i]
		l.slots[ev.slot].gen++
		ev.fn, ev.afn, ev.arg = nil, nil, nil
	}
	l.events = l.events[:0]
	l.freeSlot = l.freeSlot[:0]
	for i := noSlot + 1; i < len(l.slots); i++ {
		l.slots[i].heapIdx = -1
		l.freeSlot = append(l.freeSlot, int32(i))
	}
	l.now, l.seq, l.ran, l.dead = 0, 0, 0, 0
	l.frontAt, l.frontSeq = 0, 0
	l.resched, l.compactions, l.peakHeap = 0, 0, 0
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Len returns the number of live pending events. Stopped timers whose heap
// entries have not yet been drained are not counted: Len answers "how much
// work is still scheduled", which is what idle detection and pending-event
// assertions mean by it.
func (l *Loop) Len() int { return len(l.events) - l.dead }

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
	return l.push(t, fn, nil, nil)
}

// AtArg arranges for fn(arg) to run at absolute virtual time t. Unlike At
// with a fresh closure, a long-lived fn plus a pointer-shaped arg schedules
// without allocating — the fast path network elements use to forward frames.
func (l *Loop) AtArg(t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: AtArg called with nil callback")
	}
	return l.push(t, nil, fn, arg)
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
	return l.reschedule(tm, t, fn, nil, nil)
}

// RescheduleArg is Reschedule for the allocation-free callback form of
// AtArg.
func (l *Loop) RescheduleArg(tm Timer, t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: RescheduleArg called with nil callback")
	}
	return l.reschedule(tm, t, nil, fn, arg)
}

// reschedule retargets tm's heap entry when one still exists (live or
// stopped-but-undrained), falling back to a plain push.
func (l *Loop) reschedule(tm Timer, t Time, fn func(), afn func(any), arg any) Timer {
	if tm.l != l {
		return l.push(t, fn, afn, arg)
	}
	s := &l.slots[tm.slot]
	if s.gen != tm.gen || s.heapIdx < 0 {
		return l.push(t, fn, afn, arg)
	}
	if t < l.now {
		t = l.now
	}
	ev := &l.events[s.heapIdx]
	if ev.fn == nil && ev.afn == nil {
		l.dead-- // reviving a stopped entry in place
	}
	s.gen++ // invalidate stale handles, as Stop+At would
	ev.at, ev.seq = t, l.seq
	l.seq++
	ev.fn, ev.afn, ev.arg = fn, afn, arg
	l.siftDown(s.heapIdx)
	l.siftUp(s.heapIdx)
	l.resched++
	return Timer{l: l, slot: tm.slot, gen: s.gen}
}

// maybeCompact rebuilds the heap without its cancelled entries once they
// outnumber the live ones, so long-running simulations that stop many timers
// (delayed-ACK races, retransmission cancels) stop paying sift comparisons
// for dead weight. Rebuilding never changes execution order: pop order is a
// pure function of the (at, seq) keys, which compaction preserves.
func (l *Loop) maybeCompact() {
	if l.dead < 64 || l.dead*2 < len(l.events) {
		return
	}
	l.compactions++
	kept := l.events[:0]
	for i := range l.events {
		ev := &l.events[i]
		if ev.fn == nil && ev.afn == nil {
			// Only a Timer can stop an event, so a dead entry's slot is
			// its own, never noSlot.
			s := &l.slots[ev.slot]
			s.heapIdx = -1
			s.gen++
			l.freeSlot = append(l.freeSlot, ev.slot)
			continue
		}
		kept = append(kept, *ev)
	}
	tail := l.events[len(kept):]
	for i := range tail {
		tail[i] = event{} // release fn/arg references
	}
	l.events = kept
	l.dead = 0
	for i := range kept {
		l.slots[kept[i].slot].heapIdx = int32(i)
	}
	for i := int32(len(kept)-2) / heapArity; i >= 0; i-- {
		l.siftDown(i)
	}
}

// push allocates a slot and sifts the new event into the heap.
func (l *Loop) push(t Time, fn func(), afn func(any), arg any) Timer {
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
	i := int32(len(l.events))
	l.events = append(l.events, event{at: t, seq: l.seq, fn: fn, afn: afn, arg: arg, slot: slot})
	l.seq++
	if n := len(l.events); n > l.peakHeap {
		l.peakHeap = n
	}
	l.slots[slot].heapIdx = i
	l.siftUp(i)
	return Timer{l: l, slot: slot, gen: l.slots[slot].gen}
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
	i := int32(len(l.events))
	l.events = append(l.events, event{at: at, seq: seq, afn: fn, arg: arg, slot: noSlot})
	if n := len(l.events); n > l.peakHeap {
		l.peakHeap = n
	}
	l.siftUp(i)
}

// less orders events by timestamp, then scheduling order. The key is unique
// per event, so heap pop order is a total order identical to the previous
// container/heap implementation's.
func (l *Loop) less(i, j int32) bool {
	a, b := &l.events[i], &l.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (l *Loop) swap(i, j int32) {
	l.events[i], l.events[j] = l.events[j], l.events[i]
	l.slots[l.events[i].slot].heapIdx = i
	l.slots[l.events[j].slot].heapIdx = j
}

const heapArity = 4

func (l *Loop) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !l.less(i, parent) {
			break
		}
		l.swap(i, parent)
		i = parent
	}
}

func (l *Loop) siftDown(i int32) {
	n := int32(len(l.events))
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if l.less(c, min) {
				min = c
			}
		}
		if !l.less(min, i) {
			return
		}
		l.swap(i, min)
		i = min
	}
}

// popMin removes the earliest event without copying it out; callers that
// need its fields read them off the root first. Releases the event's slot.
func (l *Loop) popMin() {
	root := &l.events[0]
	if root.fn == nil && root.afn == nil {
		l.dead-- // draining a cancelled entry
	}
	slot := root.slot
	n := int32(len(l.events)) - 1
	if n > 0 {
		l.events[0] = l.events[n]
		l.slots[l.events[0].slot].heapIdx = 0
	}
	// Release only the reference-holding fields of the vacated entry; the
	// stale scalars are overwritten by the next push into this index.
	l.events[n].fn, l.events[n].afn, l.events[n].arg = nil, nil, nil
	l.events = l.events[:n]
	if n > 0 {
		l.siftDown(0)
	}
	if slot == noSlot {
		return
	}
	s := &l.slots[slot]
	s.heapIdx = -1
	s.gen++
	l.freeSlot = append(l.freeSlot, slot)
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed. Cancelled events are
// skipped without being counted.
func (l *Loop) Step() bool {
	for len(l.events) > 0 {
		root := &l.events[0]
		at, seq, fn, afn, arg := root.at, root.seq, root.fn, root.afn, root.arg
		l.popMin()
		if fn == nil && afn == nil {
			continue // cancelled
		}
		l.now = at
		l.frontAt, l.frontSeq = at, seq
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		l.ran++
		return true
	}
	return false
}

// StepBefore executes the earliest pending event if it is due at or before
// t, reporting whether one ran. It is the fused peek+Step synchronous
// drivers pump the loop with — one heap-root inspection per event instead
// of two.
func (l *Loop) StepBefore(t Time) bool {
	for len(l.events) > 0 {
		ev := &l.events[0]
		if ev.fn == nil && ev.afn == nil {
			l.popMin() // drain cancelled entries at the root
			continue
		}
		if ev.at > t {
			return false
		}
		return l.Step()
	}
	return false
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

// peek returns the timestamp of the earliest live event, draining cancelled
// events from the head of the heap as it looks.
func (l *Loop) peek() (Time, bool) {
	for len(l.events) > 0 {
		ev := &l.events[0]
		if ev.fn != nil || ev.afn != nil {
			return ev.at, true
		}
		l.popMin()
	}
	return 0, false
}
