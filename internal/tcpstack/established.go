package tcpstack

import (
	"bytes"
	"net/netip"

	"reorder/internal/netem"
	"reorder/internal/packet"
)

// handleEstablished processes a segment on an established connection: ACK
// bookkeeping for the data server, then receive-side sequence processing
// with the delayed-ACK and immediate-ACK rules the measurement techniques
// exploit.
func (s *Stack) handleEstablished(k packet.FlowKey, c *conn, p *packet.Packet) {
	hdr := p.TCP

	if hdr.HasFlags(packet.FlagACK) {
		s.processAck(c, hdr)
	}

	switch {
	case len(p.Payload) > 0:
		s.processData(c, p)
	case hdr.HasFlags(packet.FlagFIN):
		// FIN with no data: ack it, send our FIN, and drop state. The
		// prober treats FIN/ACK as connection teardown confirmation.
		if hdr.Seq == c.rcvNxt {
			c.rcvNxt++
			s.stats.AcksSent++
			h := s.outHdr()
			h.SrcPort, h.DstPort = c.lport, c.pport
			h.Seq, h.Ack = c.sndNxt, c.rcvNxt
			h.Flags = packet.FlagFIN | packet.FlagACK
			h.Window = window
			s.transmit(c.peer, h, nil)
			s.dropConn(k, c)
		}
	}
	if hdr.HasFlags(packet.FlagFIN) && len(p.Payload) > 0 && hdr.Seq+uint32(len(p.Payload)) == c.rcvNxt {
		// Data+FIN handled above through processData; acknowledge the FIN.
		c.rcvNxt++
		s.sendAck(c, false)
	}
}

// processAck advances the send side and drives the data application.
func (s *Stack) processAck(c *conn, hdr *packet.TCPHeader) {
	c.peerWnd = uint32(hdr.Window)
	if packet.SeqGT(hdr.Ack, c.sndUna) && packet.SeqLEQ(hdr.Ack, c.sndNxt) {
		c.sndUna = hdr.Ack
		c.rtxTimer.Stop()
	}
	if c.serving {
		s.pump(c)
	}
}

// requestLineLimit bounds the request line the way a web server's limit
// does: a '\n' in a segment that starts this far into the stream or beyond
// does not complete a request.
const requestLineLimit = 8 << 10

// processData implements receive-side sequence processing.
func (s *Stack) processData(c *conn, p *packet.Packet) {
	hdr := p.TCP
	seq := hdr.Seq
	end := seq + uint32(len(p.Payload))

	switch {
	case packet.SeqLEQ(end, c.rcvNxt):
		// Entirely old data (e.g. the single connection test retransmitting
		// its hole-maker after the hole was later filled): immediate
		// duplicate ACK so the sender learns our state.
		s.sendAck(c, true)

	case packet.SeqGT(seq, c.rcvNxt):
		// Out-of-order: queue it, update SACK state, and ACK immediately —
		// the fast-retransmit support behaviour (§II-A) that both the
		// single and dual connection tests rely on for prompt feedback.
		s.insertOOO(c, seq, end)
		s.sendAck(c, true)

	default:
		// In-order (seq <= rcvNxt < end): advance and merge the OOO queue.
		c.rcvNxt = end
		filled := s.mergeOOO(c)
		// reqNewline only ever turns true, and only a segment that starts
		// within requestLineLimit of the stream is scanned, so a connection
		// past its request line, or a bulk sink's that never gets one, stops
		// scanning payloads for it.
		if !c.reqNewline && seq-(c.irs+1) < requestLineLimit && bytes.IndexByte(p.Payload, '\n') >= 0 {
			c.reqNewline = true
		}
		s.appDeliver(c)
		if filled {
			// Filling a hole: ACK immediately (RFC 5681).
			s.sendAck(c, true)
			return
		}
		// Plain in-order data: delayed ACK algorithm. RescheduleArg revives
		// the timer's heap entry in place when an earlier sendAck merely
		// stopped it — one sift instead of a dead entry plus a fresh push.
		c.delackCount++
		if c.delackCount >= s.cfg.DelAckThreshold {
			s.sendAck(c, false)
			return
		}
		if !c.delackTimer.Pending() {
			c.delackTimer = s.loop.RescheduleArg(c.delackTimer,
				s.loop.Now().Add(s.cfg.DelAckTimeout), s.delackFn, c)
		}
	}
}

// insertOOO adds [seq,end) to the out-of-order queue, coalescing overlaps,
// and refreshes the SACK block list with the newest block first (RFC 2018).
func (s *Stack) insertOOO(c *conn, seq, end uint32) {
	merged := oooSeg{seq: seq, end: end}
	out := c.ooo[:0]
	for _, g := range c.ooo {
		if packet.SeqLT(merged.end, g.seq) || packet.SeqGT(merged.seq, g.end) {
			out = append(out, g)
			continue
		}
		merged.seq = packet.SeqMin(merged.seq, g.seq)
		merged.end = packet.SeqMax(merged.end, g.end)
	}
	// Insert keeping the queue sorted by seq.
	pos := len(out)
	for i, g := range out {
		if packet.SeqLT(merged.seq, g.seq) {
			pos = i
			break
		}
	}
	out = append(out, oooSeg{})
	copy(out[pos+1:], out[pos:])
	out[pos] = merged
	c.ooo = out

	if c.sackOK {
		// Rebuild newest-first into the connection's scratch list, then
		// swap the two: no allocation once both have reached capacity 4.
		nb := packet.SACKBlock{Left: merged.seq, Right: merged.end}
		blocks := append(c.sackAlt[:0], nb)
		for _, b := range c.sack {
			if b.Left == nb.Left && b.Right == nb.Right {
				continue
			}
			// Blocks merged into the new one disappear.
			if packet.SeqGEQ(b.Left, nb.Left) && packet.SeqLEQ(b.Right, nb.Right) {
				continue
			}
			blocks = append(blocks, b)
			if len(blocks) == 4 {
				break
			}
		}
		c.sack, c.sackAlt = blocks, c.sack
	}
}

// mergeOOO consumes queued segments made contiguous by an advance of
// rcvNxt. It reports whether the advance consumed at least one queued
// segment (i.e. the arriving segment filled a hole).
func (s *Stack) mergeOOO(c *conn) bool {
	filled := false
	n := 0
	for n < len(c.ooo) && packet.SeqLEQ(c.ooo[n].seq, c.rcvNxt) {
		if packet.SeqGT(c.ooo[n].end, c.rcvNxt) {
			c.rcvNxt = c.ooo[n].end
		}
		n++
	}
	if n > 0 {
		// Compact rather than reslice the head away, so the queue's
		// storage keeps its full capacity for connection-state reuse.
		c.ooo = c.ooo[:copy(c.ooo, c.ooo[n:])]
		filled = true
	}
	if c.sackOK {
		kept := c.sack[:0]
		for _, b := range c.sack {
			if packet.SeqGT(b.Right, c.rcvNxt) {
				kept = append(kept, b)
			}
		}
		c.sack = kept
	}
	return filled
}

// sendAck transmits a pure ACK reflecting the current receive state.
// immediate marks ACKs forced by OOO data, hole fills, or duplicates; they
// cancel any pending delayed ACK.
func (s *Stack) sendAck(c *conn, immediate bool) {
	c.delackTimer.Stop()
	c.delackCount = 0
	hdr := s.outHdr()
	hdr.SrcPort, hdr.DstPort = c.lport, c.pport
	hdr.Seq, hdr.Ack = c.sndNxt, c.rcvNxt
	hdr.Flags, hdr.Window = packet.FlagACK, window
	if c.sackOK && len(c.sack) > 0 {
		n := len(c.sack)
		if n > 3 {
			n = 3
		}
		d := s.sackBuf[:0]
		for _, b := range c.sack[:n] {
			d = append(d, byte(b.Left>>24), byte(b.Left>>16), byte(b.Left>>8), byte(b.Left),
				byte(b.Right>>24), byte(b.Right>>16), byte(b.Right>>8), byte(b.Right))
		}
		s.sackBuf = d
		hdr.Options = append(hdr.Options,
			packet.TCPOption{Kind: packet.OptNOP}, packet.TCPOption{Kind: packet.OptNOP},
			packet.TCPOption{Kind: packet.OptSACK, Data: d})
	}
	s.stats.AcksSent++
	if immediate {
		s.stats.ImmediateAcks++
	}
	s.transmit(c.peer, hdr, nil)
}

// appDeliver hands newly in-order data to the application. The application
// is a single-shot object server: a newline-terminated request line (think
// "GET /\r\n") triggers transmission of ObjectSize bytes. Requiring the
// newline matters: the single connection test deposits stray request bytes
// on port 80 connections, and a real web server would likewise sit silent
// until the request completes.
func (s *Stack) appDeliver(c *conn) {
	if c.appGotReq || !c.reqNewline || !s.listening(c.lport) {
		return
	}
	c.appGotReq = true
	c.serving = true
	c.sendEnd = c.sndNxt + uint32(s.cfg.ObjectSize)
	s.pump(c)
}

// pump transmits as much served data as the peer's window and MSS allow,
// and arms the retransmission timer.
func (s *Stack) pump(c *conn) {
	if !c.serving {
		return
	}
	if c.sndUna == c.sendEnd {
		c.serving = false
		c.rtxTimer.Stop()
		return
	}
	mss := uint32(s.cfg.MSS)
	if uint32(c.peerMSS) < mss {
		mss = uint32(c.peerMSS)
	}
	if mss == 0 {
		mss = 536
	}
	for packet.SeqLT(c.sndNxt, c.sendEnd) {
		inFlight := c.sndNxt - c.sndUna
		if c.peerWnd <= inFlight {
			break
		}
		room := c.peerWnd - inFlight
		n := mss
		if room < n {
			n = room
		}
		if rem := c.sendEnd - c.sndNxt; rem < n {
			n = rem
		}
		if n == 0 {
			break
		}
		s.sendData(c, c.sndNxt, n)
		c.sndNxt += n
	}
	if !c.rtxTimer.Pending() {
		c.rtxTimer = s.loop.RescheduleArg(c.rtxTimer, s.loop.Now().Add(s.cfg.RTO), s.rtxFn, c)
	}
}

// retransmit resends one segment at sndUna (go-back-N restart).
func (s *Stack) retransmit(c *conn) {
	if !c.serving || c.sndUna == c.sendEnd {
		return
	}
	mss := uint32(s.cfg.MSS)
	if uint32(c.peerMSS) < mss {
		mss = uint32(c.peerMSS)
	}
	n := c.sendEnd - c.sndUna
	if n > mss {
		n = mss
	}
	s.stats.Retransmits++
	s.sendData(c, c.sndUna, n)
	c.rtxTimer = s.loop.RescheduleArg(c.rtxTimer, s.loop.Now().Add(s.cfg.RTO), s.rtxFn, c)
}

// objectBytes is the served object's byte stream, q%251 at sequence number
// q: a deterministic function of sequence position, so traces can verify
// integrity.
var objectBytes = netem.NewPayloadTable(0, 251)

// sendData transmits object bytes [seq, seq+n).
func (s *Stack) sendData(c *conn, seq, n uint32) {
	s.stats.DataSegsSent++
	hdr := s.outHdr()
	hdr.SrcPort, hdr.DstPort = c.lport, c.pport
	hdr.Seq, hdr.Ack = seq, c.rcvNxt
	hdr.Flags = packet.FlagACK | packet.FlagPSH
	hdr.Window = window
	s.transmit(c.peer, hdr, objectBytes.Slice(seq, n))
}

// transmit emits one datagram, stamping the IPID. payload is nil or a slice
// of objectBytes, which nothing ever writes, so the frame view shares it;
// the header is copied into the view. Wire bytes are not encoded here —
// they materialize only if something downstream needs octets.
func (s *Stack) transmit(dst netip.Addr, hdr *packet.TCPHeader, payload []byte) {
	ip := packet.IPv4Header{
		Src: s.addr, Dst: dst,
		ID: s.gen.Next(dst),
	}
	if !s.cfg.DisablePMTUD {
		ip.Flags = packet.FlagDF
	}
	f, err := s.arena.NewTCPFrameShared(s.ids.Next(), s.loop.Now(), &ip, hdr, payload)
	if err != nil {
		panic("tcpstack: encode: " + err.Error())
	}
	s.out.Input(f)
}
