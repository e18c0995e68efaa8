package netem

import (
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// MiddleboxConfig selects which adversarial behaviors a Middlebox applies
// to TCP traffic crossing it. Probabilities at or below zero disable the
// behavior and draw no randomness, so an all-zero config is rng-inert and
// forwards every frame untouched.
type MiddleboxConfig struct {
	// RSTProb / FINProb inject a forged RST (resp. FIN|ACK) continuing the
	// flow immediately after forwarding a data segment, as connection-reset
	// appliances and some stateful firewalls do.
	RSTProb float64
	FINProb float64
	// HoleProb silently discards a data segment, opening a sequence hole
	// the endpoints must repair — the mid-path analogue of policer drops.
	HoleProb float64
	// TTLClamp, when nonzero, rewrites any larger TTL down to it.
	TTLClamp uint8
	// WindowClamp, when nonzero, rewrites any larger receive window down to
	// it (WAN-accelerator / rate-shaper behavior).
	WindowClamp uint16
	// RewriteTOS overwrites the IP TOS byte with TOS (DSCP bleaching).
	RewriteTOS bool
	TOS        uint8
	// Inactive builds the element dormant; a scenario timeline flips it on
	// mid-flow via SetActive for hard start/stop edges.
	Inactive bool
}

// MiddleboxStats counts the adversarial actions a Middlebox performed, on
// top of the In/Out/Dropped frame accounting in Counters.
type MiddleboxStats struct {
	Injected  uint64 // forged RST/FIN segments originated
	Holes     uint64 // data segments swallowed
	Rewritten uint64 // segments forwarded with rewritten headers
}

// Middlebox models an adversarial in-path appliance in the DPI position:
// it decodes TCP traffic and injects behavior the paper's measurement
// techniques were never validated against — spurious RST/FIN, sequence
// holes, TTL clamping, header rewriting. Non-TCP, fragmented, and
// undecodable frames pass through untouched (and draw no randomness), so
// the element composes with fragmenting and corrupting hops in either
// frame form: a frame that decodes from its view decodes identically from
// its materialized bytes, keeping view/byte differential runs in lockstep.
type Middlebox struct {
	loop   *sim.Loop
	next   Node
	rng    *sim.Rand
	arena  *Arena
	ids    *FrameIDs
	cfg    MiddleboxConfig
	active bool
	stats  Counters
	mb     MiddleboxStats

	scratch packet.Packet
}

// NewMiddlebox returns an adversarial hop feeding next. Injected and
// rewritten frames are allocated from arena and numbered from ids, the
// network's shared frame-ID space, so ground-truth traces stay unique.
func NewMiddlebox(cfg MiddleboxConfig, loop *sim.Loop, rng *sim.Rand, arena *Arena, ids *FrameIDs, next Node) *Middlebox {
	m := &Middlebox{}
	m.Reinit(cfg, loop, rng, arena, ids, next)
	return m
}

// Reinit configures the element and zeroes its counters, retaining the
// decode scratch storage; NewMiddlebox ends by calling it.
func (m *Middlebox) Reinit(cfg MiddleboxConfig, loop *sim.Loop, rng *sim.Rand, arena *Arena, ids *FrameIDs, next Node) {
	m.loop, m.next, m.rng, m.arena, m.ids = loop, next, rng, arena, ids
	m.cfg = cfg
	m.active = !cfg.Inactive
	m.stats = Counters{}
	m.mb = MiddleboxStats{}
}

// SetActive flips the element's hard on/off edge; while inactive every
// frame passes through untouched and no randomness is drawn.
func (m *Middlebox) SetActive(on bool) { m.active = on }

// Active reports whether the element is currently applying behavior.
func (m *Middlebox) Active() bool { return m.active }

// Stats returns a snapshot of the element's frame counters.
func (m *Middlebox) Stats() Counters { return m.stats }

// MiddleboxStats returns a snapshot of the adversarial-action counters.
func (m *Middlebox) MiddleboxStats() MiddleboxStats { return m.mb }

// Input implements Node.
func (m *Middlebox) Input(f *Frame) {
	m.stats.In++
	if !m.active {
		m.stats.Out++
		m.next.Input(f)
		return
	}
	p := &m.scratch
	if !m.decode(f, p) || p.TCP == nil {
		m.stats.Out++
		m.next.Input(f)
		return
	}
	tcp := p.TCP
	// Data segments are the ones worth attacking: control segments (SYN,
	// RST, FIN) are left alone so handshakes still complete and the
	// injected teardown below stays unambiguous in traces.
	isData := len(p.Payload) > 0 && tcp.Flags&(packet.FlagSYN|packet.FlagRST|packet.FlagFIN) == 0
	if isData && m.rng.Bool(m.cfg.HoleProb) {
		m.stats.Dropped++
		m.mb.Holes++
		return
	}
	ip := p.IP
	hdr := *tcp
	rewritten := false
	if m.cfg.TTLClamp > 0 && ip.TTL > m.cfg.TTLClamp {
		ip.TTL = m.cfg.TTLClamp
		rewritten = true
	}
	if m.cfg.WindowClamp > 0 && hdr.Window > m.cfg.WindowClamp {
		hdr.Window = m.cfg.WindowClamp
		rewritten = true
	}
	if m.cfg.RewriteTOS && ip.TOS != m.cfg.TOS {
		ip.TOS = m.cfg.TOS
		rewritten = true
	}
	out := f
	if rewritten {
		ip.Checksum, hdr.Checksum = 0, 0
		if nf, err := m.arena.NewTCPFrame(f.ID, f.Born, &ip, &hdr, p.Payload); err == nil {
			out = nf
			m.mb.Rewritten++
		}
	}
	m.stats.Out++
	m.next.Input(out)
	if isData {
		if m.rng.Bool(m.cfg.RSTProb) {
			m.inject(p, packet.FlagRST|packet.FlagACK)
		} else if m.rng.Bool(m.cfg.FINProb) {
			m.inject(p, packet.FlagFIN|packet.FlagACK)
		}
	}
}

// decode fills p from the frame, preferring the already-parsed view and
// falling back to a checksum-verified wire decode. It reports false for
// frames the middlebox must not touch: non-IP payloads, fragments, and
// anything that fails validation — a frame's view and its materialized
// bytes always decode to the same answer, so the decision is form-blind.
func (m *Middlebox) decode(f *Frame, p *packet.Packet) bool {
	if v := f.View(); v != nil {
		v.ToPacket(p)
	} else {
		if len(f.Data) == 0 || packet.DecodeInto(p, f.Data) != nil {
			return false
		}
	}
	if p.IP.FragOffset != 0 || p.IP.Flags&packet.FlagMF != 0 {
		return false
	}
	return true
}

// inject originates a forged teardown segment continuing the flow of the
// data packet just forwarded: same four-tuple and direction, sequence
// number advanced past the payload so the receiver accepts it in-window.
func (m *Middlebox) inject(p *packet.Packet, flags uint8) {
	ip := packet.IPv4Header{
		Src: p.IP.Src,
		Dst: p.IP.Dst,
		ID:  p.IP.ID ^ 0x5a5a,
		TTL: p.IP.TTL,
	}
	tcp := packet.TCPHeader{
		SrcPort: p.TCP.SrcPort,
		DstPort: p.TCP.DstPort,
		Seq:     p.TCP.Seq + uint32(len(p.Payload)),
		Ack:     p.TCP.Ack,
		Flags:   flags,
		Window:  p.TCP.Window,
	}
	nf, err := m.arena.NewTCPFrame(m.ids.Next(), m.loop.Now(), &ip, &tcp, nil)
	if err != nil {
		return
	}
	m.mb.Injected++
	m.next.Input(nf)
}
