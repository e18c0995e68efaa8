package netem

import (
	"reorder/internal/packet"
)

// Fragmenter models a router forwarding onto a smaller-MTU link: frames
// over the MTU are split into IP fragments (sharing the original's frame
// ID for tracing purposes); DF-marked oversized frames are dropped, as a
// router without ICMP support would. Fragments traverse the rest of the
// path as independent packets — and can therefore be reordered among
// themselves, which is exactly the situation the IPID-keyed reassembly
// design (§III-A) exists to survive.
type Fragmenter struct {
	mtu   int
	next  Node
	stats Counters
}

// NewFragmenter returns a fragmenting hop feeding next.
func NewFragmenter(mtu int, next Node) *Fragmenter {
	fr := &Fragmenter{}
	fr.Reinit(mtu, next)
	return fr
}

// Reinit configures the hop and zeroes its counters; NewFragmenter ends by
// calling it, and a pooled hop is reused through it.
func (fr *Fragmenter) Reinit(mtu int, next Node) {
	fr.mtu, fr.next = mtu, next
	fr.stats = Counters{}
}

// Stats returns a snapshot of the element's counters. Out counts emitted
// fragments (or intact frames).
func (fr *Fragmenter) Stats() Counters { return fr.stats }

// Input implements Node. Fragmenting needs real octets, so this is one of
// the few elements that materializes a view-built frame.
func (fr *Fragmenter) Input(f *Frame) {
	fr.stats.In++
	frags, err := packet.Fragment(f.Materialize(), fr.mtu)
	if err != nil {
		fr.stats.Dropped++ // DF over MTU, or garbage
		return
	}
	if len(frags) == 1 {
		fr.stats.Out++
		fr.next.Input(f)
		return
	}
	for _, fd := range frags {
		fr.stats.Out++
		fr.next.Input(&Frame{ID: f.ID, Data: fd, Born: f.Born})
	}
}
