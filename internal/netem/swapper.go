package netem

import (
	"time"

	"reorder/internal/sim"
)

// Swapper reimplements the paper's modified dummynet traffic shaper (§IV-A):
// with a configured probability it swaps a packet with the following one.
// When a frame is selected, it is held back; the next frame to arrive is
// forwarded first, then the held frame, producing exactly one adjacent
// exchange. A held frame with no successor is flushed after FlushAfter so
// lone packets are never stranded.
type Swapper struct {
	loop  *sim.Loop
	next  Node
	rng   *sim.Rand
	prob  func(sim.Time) float64 // nil: use the fixed probability
	fixed float64
	flush time.Duration
	stats Counters

	held       *Frame
	flushTimer sim.Timer
	flushFn    func(any)
}

// DefaultFlushAfter bounds how long a held packet waits for a successor.
const DefaultFlushAfter = 50 * time.Millisecond

// NewSwapper returns a swapper with fixed probability p feeding next.
func NewSwapper(loop *sim.Loop, p float64, rng *sim.Rand, next Node) *Swapper {
	return newSwapper(loop, nil, p, rng, next)
}

// NewSwapperFunc returns a swapper whose probability varies with virtual
// time, used to model paths whose reordering rate drifts (Fig 6). A nil
// prob means the fixed probability (zero until set).
func NewSwapperFunc(loop *sim.Loop, prob func(sim.Time) float64, rng *sim.Rand, next Node) *Swapper {
	return newSwapper(loop, prob, 0, rng, next)
}

func newSwapper(loop *sim.Loop, prob func(sim.Time) float64, p float64, rng *sim.Rand, next Node) *Swapper {
	s := &Swapper{loop: loop}
	s.flushFn = func(arg any) {
		f := arg.(*Frame)
		if s.held == f {
			s.held = nil
			s.stats.Out++
			s.next.Input(f)
		}
	}
	s.Reinit(prob, p, rng, next)
	return s
}

// Reinit configures the swapper — the time-varying prob when non-nil, else
// the fixed probability p — and empties it, keeping its loop and cached
// flush callback; both constructors end by calling it.
func (s *Swapper) Reinit(prob func(sim.Time) float64, p float64, rng *sim.Rand, next Node) {
	s.next, s.rng, s.prob, s.fixed = next, rng, prob, p
	s.flush = DefaultFlushAfter
	s.stats = Counters{}
	s.held = nil
	s.flushTimer = sim.Timer{}
}

// probAt returns the swap probability in effect at time t.
func (s *Swapper) probAt(t sim.Time) float64 {
	if s.prob != nil {
		return s.prob(t)
	}
	return s.fixed
}

// SetFlushAfter overrides the hold timeout.
func (s *Swapper) SetFlushAfter(d time.Duration) { s.flush = d }

// SetProb retargets the fixed swap probability mid-flow and drops any
// time-varying probability function, the scenario-timeline hook for
// reordering bursts. At or below zero the element draws no randomness.
func (s *Swapper) SetProb(p float64) { s.prob, s.fixed = nil, p }

// Stats returns a snapshot of the swapper's counters. Swapped counts
// completed exchanges.
func (s *Swapper) Stats() Counters { return s.stats }

// Input implements Node.
func (s *Swapper) Input(f *Frame) {
	s.stats.In++
	if s.held != nil {
		// Forward the newcomer first, then the held frame: one adjacent swap.
		s.flushTimer.Stop()
		held := s.held
		s.held = nil
		s.stats.Out += 2
		s.stats.Swapped++
		s.next.Input(f)
		s.next.Input(held)
		return
	}
	if s.rng.Bool(s.probAt(s.loop.Now())) {
		s.held = f
		// RescheduleArg revives the stopped timer's heap entry from the
		// previous hold in place instead of pushing a replacement.
		s.flushTimer = s.loop.RescheduleArg(s.flushTimer, s.loop.Now().Add(s.flush), s.flushFn, f)
		return
	}
	s.stats.Out++
	s.next.Input(f)
}
