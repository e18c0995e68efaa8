// Package host assembles a simulated remote endpoint: a TCP stack with an
// implementation profile, an IPID generation policy, and an ICMP echo
// responder with optional rate limiting — everything the paper's techniques
// probe. A Host is a netem.Node: the network delivers frames to it and it
// transmits frames back through its configured egress.
package host

import (
	"net/netip"

	"reorder/internal/ipid"
	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
	"reorder/internal/tcpstack"
)

// ICMPConfig controls the echo responder. The zero value answers every
// request, unlimited — but see Profile defaults; many operators filter or
// rate-limit ICMP, which is one of the paper's arguments against
// ping-based measurement (§II).
type ICMPConfig struct {
	// Filtered drops all echo requests silently.
	Filtered bool
	// RepliesPerSec caps replies per second (token bucket of the same burst
	// size). Zero means unlimited.
	RepliesPerSec int
}

// Host is one simulated endpoint.
type Host struct {
	Stack *tcpstack.Stack

	loop    *sim.Loop
	addr    netip.Addr
	profile string
	gen     ipid.Generator
	ipids   ipid.Store // gen's storage, re-initialized by every reset
	ids     *netem.FrameIDs
	out     netem.Node
	icmp    ICMPConfig

	// ipidRng and isnRng are the two streams ResetAt forks from the build
	// stream, reseeded in place (see sim.Rand.ForkInto).
	ipidRng, isnRng *sim.Rand

	reasm      *packet.Reassembler
	udpApps    map[uint16]func(*packet.Packet)
	tokens     float64
	lastRefill sim.Time

	arena *netem.Arena
	// rxPkt is the host's scratch decoded packet for the UDP/ICMP slow
	// path; nothing retains it past a handler call.
	rxPkt packet.Packet

	echoesAnswered uint64
	echoesDropped  uint64
}

// New builds a host at addr from a profile. The rng seeds the stack's ISN
// generator and any stochastic IPID policy. Frames are transmitted to out.
func New(loop *sim.Loop, p Profile, addr netip.Addr, rng *sim.Rand, ids *netem.FrameIDs, out netem.Node) *Host {
	h := &Host{loop: loop, ids: ids, ipidRng: new(sim.Rand), isnRng: new(sim.Rand)}
	h.Stack = tcpstack.New(loop, p.TCP, addr, nil, ids, h.isnRng, out)
	h.ResetAt(p, addr, rng, out)
	return h
}

// ResetAt configures the host from profile p at addr, reusing the TCP
// stack, connection pool and random stream objects; New ends by calling
// it, so the host's two forks of rng are taken in one place and a pooled
// host is observably identical to a fresh one. Topology-graph scenarios
// pool hosts by profile name and place them at build-assigned addresses,
// so a reused host (and its stack) must demultiplex on the new address;
// any profile is handled correctly, though reusing a host for a profile of
// the same name keeps the stack's shape.
func (h *Host) ResetAt(p Profile, addr netip.Addr, rng *sim.Rand, out netem.Node) {
	h.profile = p.Name
	h.addr = addr
	h.out = out
	h.icmp = p.ICMP
	h.tokens = float64(p.ICMP.RepliesPerSec)
	h.lastRefill = 0
	if h.reasm != nil {
		h.reasm.Reset()
	}
	clear(h.udpApps)
	h.echoesAnswered, h.echoesDropped = 0, 0
	rng.ForkInto(h.ipidRng, forkIPID)
	h.gen = p.IPID(&h.ipids, h.ipidRng)
	rng.ForkInto(h.isnRng, forkISN)
	h.Stack.ResetAt(p.TCP, addr, h.gen, out)
	for _, port := range p.Ports {
		h.Stack.Listen(port)
	}
}

// Profile returns the name of the profile the host was built (or last
// reset) from, the key scenario pools reuse hosts by.
func (h *Host) Profile() string { return h.profile }

// SetArena directs the host (and its TCP stack) to allocate transmitted
// datagrams and frames from a, typically the owning scenario's arena.
func (h *Host) SetArena(a *netem.Arena) {
	h.arena = a
	h.Stack.SetArena(a)
}

// IPIDPolicy returns the name of the host's IPID generation policy.
func (h *Host) IPIDPolicy() string { return h.gen.Name() }

// EchoesAnswered returns how many echo requests were answered.
func (h *Host) EchoesAnswered() uint64 { return h.echoesAnswered }

// Input implements netem.Node: frames from the network. Frames carrying a
// decoded view demultiplex on the cached flow key with zero parsing (and
// skip reassembly outright — a view frame is never a fragment, and a whole
// datagram is a reassembler no-op). Byte-form frames are reassembled if
// fragmented, as the host's IP layer would; the reassembler is built lazily
// so fragment-free scenarios never pay for it, and survives Reset, emptied.
func (h *Host) Input(f *netem.Frame) {
	if v := f.View(); v != nil {
		if v.IP.Dst != h.addr {
			return
		}
		switch v.IP.Protocol {
		case packet.ProtoTCP:
			h.Stack.Input(f)
		case packet.ProtoICMP:
			h.handleICMP(f)
		}
		// Views carry only TCP or ICMP; UDP always arrives in byte form.
		return
	}
	if h.reasm != nil || packet.IsFragment(f.Data) {
		if h.reasm == nil {
			h.reasm = packet.NewReassembler()
		}
		whole, err := h.reasm.Input(f.Data)
		if err != nil || whole == nil {
			return // malformed, or waiting for more fragments
		}
		if len(whole) != len(f.Data) {
			f = &netem.Frame{ID: f.ID, Data: whole, Born: f.Born}
		}
	}
	flow, ok := packet.PeekFlow(f.Data)
	if !ok || flow.Dst != h.addr {
		return
	}
	switch flow.Proto {
	case packet.ProtoTCP:
		h.Stack.Input(f)
	case packet.ProtoUDP:
		h.handleUDP(f)
	case packet.ProtoICMP:
		h.handleICMP(f)
	}
}

// HandleUDP registers an application for UDP datagrams addressed to port —
// the "deployment at each endpoint" the cooperative IETF measurement
// methodologies require (§II), which the paper's single-ended techniques
// exist to avoid. The packet passed to fn is the host's reused scratch
// decode; fn must consume it during the call, not retain it.
func (h *Host) HandleUDP(port uint16, fn func(*packet.Packet)) {
	if h.udpApps == nil {
		h.udpApps = make(map[uint16]func(*packet.Packet))
	}
	h.udpApps[port] = fn
}

// rx produces the host's scratch decoded form of f: the attached view when
// one exists, else a pooled DecodeInto — never an allocating Decode. The
// result is valid only until the next rx call; handlers (and registered UDP
// applications) must not retain it.
func (h *Host) rx(f *netem.Frame) (*packet.Packet, bool) {
	if v := f.View(); v != nil {
		v.ToPacket(&h.rxPkt)
		return &h.rxPkt, true
	}
	if err := packet.DecodeInto(&h.rxPkt, f.Data); err != nil {
		return nil, false
	}
	return &h.rxPkt, true
}

func (h *Host) handleUDP(f *netem.Frame) {
	p, ok := h.rx(f)
	if !ok || p.UDP == nil {
		return
	}
	if fn := h.udpApps[p.UDP.DstPort]; fn != nil {
		fn(p)
	}
	// No listener: drop silently (ICMP port-unreachable is out of scope).
}

func (h *Host) handleICMP(f *netem.Frame) {
	p, ok := h.rx(f)
	if !ok || p.ICMP == nil || !p.ICMP.IsRequest() {
		return
	}
	if h.icmp.Filtered || !h.takeToken() {
		h.echoesDropped++
		return
	}
	reply := packet.ICMPEcho{
		Type: packet.ICMPEchoReply, Ident: p.ICMP.Ident, Seq: p.ICMP.Seq,
		Payload: p.ICMP.Payload,
	}
	out, err := h.arena.NewICMPFrame(h.ids.Next(), h.loop.Now(), &packet.IPv4Header{
		Src: h.addr, Dst: p.IP.Src, ID: h.gen.Next(p.IP.Src),
	}, &reply)
	if err != nil {
		return
	}
	h.echoesAnswered++
	h.out.Input(out)
}

// takeToken implements the ICMP rate limiter as a token bucket refilled in
// virtual time.
func (h *Host) takeToken() bool {
	if h.icmp.RepliesPerSec <= 0 {
		return true
	}
	now := h.loop.Now()
	elapsed := now.Sub(h.lastRefill)
	h.lastRefill = now
	h.tokens += elapsed.Seconds() * float64(h.icmp.RepliesPerSec)
	if max := float64(h.icmp.RepliesPerSec); h.tokens > max {
		h.tokens = max
	}
	if h.tokens < 1 {
		return false
	}
	h.tokens--
	return true
}

// sim.Rand fork labels; distinct constants keep the host's random streams
// independent of one another.
const (
	forkIPID = 0x1d01
	forkISN  = 0x1d02
)
