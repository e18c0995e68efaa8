package simnet

import (
	"net/netip"
	"time"

	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// Probe is the probe host's raw-packet interface, the simulated equivalent
// of sting's packet-filter access to the wire. It satisfies the measurement
// library's FrameTransport interface, which the Prober drives, and the byte
// Transport it embeds: Send injects a raw datagram into the forward path;
// Recv pumps the event loop until a packet arrives for the probe or the
// timeout elapses in virtual time.
type Probe struct {
	net    *Net
	addr   netip.Addr
	egress netem.Node
	// inbox is a head-indexed queue so steady-state receive pops without
	// reslicing the backing array away from reuse.
	inbox     []*netem.Frame
	inboxHead int
	reasm     *packet.Reassembler
}

// reset clears the probe's receive state for scenario reuse.
func (p *Probe) reset() {
	p.inbox = p.inbox[:0]
	p.inboxHead = 0
	if p.reasm != nil {
		p.reasm.Reset()
	}
	p.egress = nil
}

// deliver is the reverse path's terminal node. Fragmented datagrams are
// reassembled here, the probe host's IP layer; the reassembler is built
// lazily so fragment-free scenarios never pay for it, and frames carrying a
// decoded view skip it outright (a view frame is never a fragment, and a
// whole datagram is a reassembler no-op).
func (p *Probe) deliver(f *netem.Frame) {
	if p.net.endpoint != nil {
		p.net.endpoint.Input(f)
		return
	}
	if f.View() == nil && (p.reasm != nil || packet.IsFragment(f.Data)) {
		if p.reasm == nil {
			p.reasm = packet.NewReassembler()
		}
		whole, err := p.reasm.Input(f.Data)
		if err != nil || whole == nil {
			return // malformed, or waiting for more fragments
		}
		if len(whole) != len(f.Data) {
			f = &netem.Frame{ID: f.ID, Data: whole, Born: f.Born}
		}
	}
	p.inbox = append(p.inbox, f)
}

// LocalAddr returns the probe's address.
func (p *Probe) LocalAddr() netip.Addr { return p.addr }

// Send injects one raw IP datagram and returns its network frame ID, which
// ground-truth captures key on. The bytes are copied into the scenario's
// arena, so the caller may reuse data immediately (the Transport contract).
func (p *Probe) Send(data []byte) uint64 {
	id := p.net.IDs.Next()
	a := p.net.arena
	p.egress.Input(a.NewFrame(id, a.CopyBytes(data), p.net.Loop.Now()))
	return id
}

// SendView injects one IPv4+TCP datagram given in decoded form — the
// zero-copy counterpart of Send implementing core.FrameTransport. The
// headers and payload are copied into an arena-owned frame view; wire
// bytes are encoded only if an element on the path needs them. ip, tcp and
// payload may be reused immediately.
func (p *Probe) SendView(ip *packet.IPv4Header, tcp *packet.TCPHeader, payload []byte) uint64 {
	id := p.net.IDs.Next()
	f, err := p.net.arena.NewTCPFrame(id, p.net.Loop.Now(), ip, tcp, payload)
	if err != nil {
		panic("simnet: encode: " + err.Error())
	}
	p.egress.Input(f)
	return id
}

// Recv returns the next packet addressed to the probe along with its frame
// ID, driving the simulation forward up to timeout of virtual time. It
// reports ok=false on timeout. Byte-oriented callers pay materialization
// for view-built frames; the measurement engine uses RecvFrame instead.
func (p *Probe) Recv(timeout time.Duration) ([]byte, uint64, bool) {
	f, ok := p.RecvFrame(timeout)
	if !ok {
		return nil, 0, false
	}
	return f.Materialize(), f.ID, true
}

// RecvFrame is Recv returning the frame itself, whose decoded view — when
// present — spares the receiver the decode round trip entirely
// (core.FrameTransport).
func (p *Probe) RecvFrame(timeout time.Duration) (*netem.Frame, bool) {
	loop := p.net.Loop
	deadline := loop.Now().Add(timeout)
	for p.inboxHead == len(p.inbox) {
		if !loop.StepBefore(deadline) {
			loop.RunUntil(deadline)
			break
		}
	}
	if p.inboxHead == len(p.inbox) {
		return nil, false
	}
	f := p.inbox[p.inboxHead]
	p.inbox[p.inboxHead] = nil
	p.inboxHead++
	if p.inboxHead == len(p.inbox) {
		p.inbox = p.inbox[:0]
		p.inboxHead = 0
	}
	return f, true
}

// Sleep advances virtual time by d, processing any network activity due in
// the interval. Received packets accumulate in the inbox.
func (p *Probe) Sleep(d time.Duration) { p.net.Loop.RunFor(d) }

// Now returns the current virtual time.
func (p *Probe) Now() sim.Time { return p.net.Loop.Now() }

// Flush discards any queued received packets (between tests).
func (p *Probe) Flush() {
	p.inbox = p.inbox[:0]
	p.inboxHead = 0
}
