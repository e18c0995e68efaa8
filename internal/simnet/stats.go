package simnet

import "reorder/internal/netem"

// Stats is the aggregate frame flow of one scenario run: every live element's
// netem.Counters summed, plus the arena's lazy materialization count and the
// number of frames born into the network. Element counters are zeroed when an
// element is reinitialized for the next build, so a Stats taken after a run
// (and before the next Reset) covers exactly that run.
type Stats struct {
	ElemIn       uint64 // frames accepted across all elements
	ElemOut      uint64 // frames forwarded downstream across all elements
	ElemDropped  uint64 // frames discarded (loss, overflow, corruption)
	ElemSwapped  uint64 // adjacent exchanges performed
	Materialized uint64 // lazy wire-byte encodes (zero-copy escape hatch)
	FramesBorn   uint64 // frame IDs issued

	// Adversarial-middlebox action counts (zero without a scenario).
	MiddleboxInjected  uint64 // forged RST/FIN segments originated
	MiddleboxHoles     uint64 // data segments swallowed
	MiddleboxRewritten uint64 // segments forwarded with rewritten headers
}

func (s *Stats) add(c netem.Counters) {
	s.ElemIn += c.In
	s.ElemOut += c.Out
	s.ElemDropped += c.Dropped
	s.ElemSwapped += c.Swapped
}

// Stats sums frame counters over the scenario's live topology.
func (n *Net) Stats() Stats {
	var s Stats
	p := &n.pool
	for _, e := range p.links.used {
		s.add(e.Stats())
	}
	for _, e := range p.delays.used {
		s.add(e.el.Stats())
	}
	for _, e := range p.losses.used {
		s.add(e.el.Stats())
	}
	for _, e := range p.swappers.used {
		s.add(e.el.Stats())
	}
	for _, e := range p.corrupters.used {
		s.add(e.el.Stats())
	}
	for _, e := range p.trunks.used {
		s.add(e.el.Stats())
	}
	for _, e := range p.multiPaths.used {
		s.add(e.el.Stats())
	}
	for _, e := range p.arqs.used {
		s.add(e.el.Stats())
	}
	for _, e := range p.priorities.used {
		s.add(e.Stats())
	}
	for _, e := range p.fragmenters.used {
		s.add(e.Stats())
	}
	for _, e := range p.routers.used {
		s.add(e.Stats())
	}
	for _, e := range p.middleboxes.used {
		s.add(e.el.Stats())
		mb := e.el.MiddleboxStats()
		s.MiddleboxInjected += mb.Injected
		s.MiddleboxHoles += mb.Holes
		s.MiddleboxRewritten += mb.Rewritten
	}
	if n.LB != nil {
		s.add(n.LB.Stats())
	}
	s.Materialized = n.arena.Materialized()
	s.FramesBorn = n.IDs.Issued()
	return s
}
