package netem

import (
	"cmp"
	"slices"

	"reorder/internal/sim"
)

// ScheduleStep is one timed mutation: at virtual time At, call Do(Arg).
// Steps are data, not events — a Schedule holds exactly one pending loop
// timer however many steps remain, so a dense timeline costs the event
// heap nothing until each step comes due.
type ScheduleStep struct {
	At  sim.Time
	Do  func(any)
	Arg any
}

// Schedule drives a declarative scenario timeline: an ordered list of
// (atSimTime, mutation) steps applied by sim.Loop timers while traffic is
// in flight. It is the engine behind simnet's fault schedules — route
// flaps, oscillating rate/queue throttles, loss and corruption bursts with
// hard start/stop edges — but it knows nothing about network elements:
// steps are opaque callbacks, so anything retargetable mid-flow can ride
// it. A Schedule draws no randomness; given the same steps it perturbs a
// deterministic simulation deterministically.
type Schedule struct {
	loop    *sim.Loop
	steps   []ScheduleStep
	idx     int
	applied uint64

	timer sim.Timer
	runFn func(any)
}

// NewSchedule returns an empty schedule on loop. Add steps, then Start.
func NewSchedule(loop *sim.Loop) *Schedule {
	s := &Schedule{}
	s.runFn = s.run
	s.Reinit(loop)
	return s
}

// Reinit empties the schedule, retaining the step storage and the cached
// timer callback; NewSchedule ends by calling it. The loop must be the one
// the schedule was built on (pools are per-scenario); any timer pending
// from a previous run died with that loop's Reset.
func (s *Schedule) Reinit(loop *sim.Loop) {
	s.loop = loop
	s.steps = s.steps[:0]
	s.idx = 0
	s.applied = 0
	s.timer = sim.Timer{}
}

// Add appends a step. Steps may be added in any order; Start sorts them.
func (s *Schedule) Add(at sim.Time, do func(any), arg any) {
	s.steps = append(s.steps, ScheduleStep{At: at, Do: do, Arg: arg})
}

// Len returns the number of steps on the timeline.
func (s *Schedule) Len() int { return len(s.steps) }

// Applied returns how many steps have fired so far.
func (s *Schedule) Applied() uint64 { return s.applied }

// Start orders the timeline and arms the first timer. Steps with equal At
// keep their Add order (stable sort) and fire in that order within one
// timer callback. Call once per build, after every Add.
func (s *Schedule) Start() {
	if len(s.steps) == 0 {
		return
	}
	slices.SortStableFunc(s.steps, func(a, b ScheduleStep) int { return cmp.Compare(a.At, b.At) })
	s.arm()
}

// arm schedules the run callback for the next pending step, clamping
// past-due steps to now. RescheduleArg revives the previous firing's heap
// entry, so a long timeline costs one live event, reused.
func (s *Schedule) arm() {
	at := s.steps[s.idx].At
	if now := s.loop.Now(); at < now {
		at = now
	}
	s.timer = s.loop.RescheduleArg(s.timer, at, s.runFn, nil)
}

// run applies every step due at (or before) the current virtual time, then
// re-arms for the next one.
func (s *Schedule) run(any) {
	now := s.loop.Now()
	for s.idx < len(s.steps) && s.steps[s.idx].At <= now {
		st := &s.steps[s.idx]
		s.idx++
		s.applied++
		st.Do(st.Arg)
	}
	if s.idx < len(s.steps) {
		s.arm()
	}
}
