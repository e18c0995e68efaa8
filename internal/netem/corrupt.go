package netem

import (
	"reorder/internal/sim"
)

// Corrupter models a hop that damages bits in flight — line noise, a bad
// optic, a flaky switch port. With the configured probability it flips one
// random bit of the datagram; receivers then discard the segment at
// checksum validation, exactly as a real NIC or stack would, so on the
// measurement techniques corruption manifests as loss.
//
// A corrupted datagram has no truthful decoded view, so this is the
// canonical byte-mutating element: it materializes the frame's wire bytes,
// copies them (frames are immutable — captures upstream may already share
// the original bytes), damages the copy and forwards it as a new byte-form
// frame under the same frame ID.
type Corrupter struct {
	next  Node
	rng   *sim.Rand
	p     float64
	arena *Arena
	stats Counters
}

// NewCorrupter returns a corrupting hop feeding next. Damaged copies are
// allocated from arena (nil falls back to the heap).
func NewCorrupter(p float64, rng *sim.Rand, arena *Arena, next Node) *Corrupter {
	c := &Corrupter{}
	c.Reinit(p, rng, arena, next)
	return c
}

// Reinit configures the element and zeroes its counters; NewCorrupter ends
// by calling it, and a pooled element is reused through it.
func (c *Corrupter) Reinit(p float64, rng *sim.Rand, arena *Arena, next Node) {
	c.next, c.rng, c.p, c.arena = next, rng, p, arena
	c.stats = Counters{}
}

// Stats returns a snapshot of the element's counters. Swapped counts frames
// forwarded with damage.
func (c *Corrupter) Stats() Counters { return c.stats }

// SetProb retargets the corruption probability mid-flow, the
// scenario-timeline hook for corruption storms. At or below zero the
// element draws no randomness.
func (c *Corrupter) SetProb(p float64) { c.p = p }

// Input implements Node.
func (c *Corrupter) Input(f *Frame) {
	c.stats.In++
	if !c.rng.Bool(c.p) {
		c.stats.Out++
		c.next.Input(f)
		return
	}
	data := f.Materialize()
	if len(data) == 0 {
		c.stats.Dropped++
		return
	}
	buf := append(c.arena.Alloc(len(data)), data...)
	bit := c.rng.IntN(len(buf) * 8)
	buf[bit>>3] ^= 1 << (bit & 7)
	c.stats.Out++
	c.stats.Swapped++
	c.next.Input(c.arena.NewFrame(f.ID, buf, f.Born))
}
