package netem

import (
	"time"

	"reorder/internal/sim"
)

// Loss drops frames independently with a fixed probability.
type Loss struct {
	next  Node
	rng   *sim.Rand
	p     float64
	stats Counters
}

// NewLoss returns a lossy element feeding next.
func NewLoss(p float64, rng *sim.Rand, next Node) *Loss {
	l := &Loss{}
	l.Reinit(p, rng, next)
	return l
}

// Reinit configures the element and zeroes its counters; NewLoss ends by
// calling it. A pooled element is reused through it, normally with the
// stream it was built with, reseeded by the caller (sim.Rand.ForkInto).
func (l *Loss) Reinit(p float64, rng *sim.Rand, next Node) {
	l.next, l.rng, l.p = next, rng, p
	l.stats = Counters{}
}

// Stats returns a snapshot of the element's counters.
func (l *Loss) Stats() Counters { return l.stats }

// SetProb retargets the drop probability mid-flow, the scenario-timeline
// hook for loss bursts with hard start/stop edges. A probability at or
// below zero draws no randomness (sim.Rand.Bool), so an idle burst element
// is rng-inert between edges.
func (l *Loss) SetProb(p float64) { l.p = p }

// Input implements Node.
func (l *Loss) Input(f *Frame) {
	l.stats.In++
	if l.rng.Bool(l.p) {
		l.stats.Dropped++
		return
	}
	l.stats.Out++
	l.next.Input(f)
}

// Delay adds a fixed delay plus optional uniform jitter to every frame.
// Because jitter is applied independently per frame, a Delay with nonzero
// jitter can itself reorder closely spaced packets — which is sometimes the
// point, and is why the controlled-validation topology uses jitter of zero.
type Delay struct {
	loop      *sim.Loop
	next      Node
	rng       *sim.Rand
	base      time.Duration
	jitter    time.Duration
	stats     Counters
	deliverFn func(any)
}

// NewDelay returns a delay element feeding next. Each frame is delayed by
// base plus a uniform draw in [0, jitter).
func NewDelay(loop *sim.Loop, base, jitter time.Duration, rng *sim.Rand, next Node) *Delay {
	d := &Delay{loop: loop}
	d.deliverFn = func(arg any) {
		d.stats.Out++
		d.next.Input(arg.(*Frame))
	}
	d.Reinit(base, jitter, rng, next)
	return d
}

// Reinit configures the element and zeroes its counters, keeping its loop
// and cached callback; NewDelay ends by calling it.
func (d *Delay) Reinit(base, jitter time.Duration, rng *sim.Rand, next Node) {
	d.next, d.rng, d.base, d.jitter = next, rng, base, jitter
	d.stats = Counters{}
}

// Stats returns a snapshot of the element's counters.
func (d *Delay) Stats() Counters { return d.stats }

// Input implements Node.
func (d *Delay) Input(f *Frame) {
	d.stats.In++
	delay := d.base
	if d.jitter > 0 {
		delay += time.Duration(d.rng.Float64() * float64(d.jitter))
	}
	d.loop.ScheduleArg(delay, d.deliverFn, f)
}
