package tcpsender

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// formulaPayload is the payload definition the pattern table replaced: one
// byte at a time, 'a' plus the byte's sequence number mod 25, the sequence
// number wrapping as uint32.
func formulaPayload(seq, n uint32) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = 'a' + byte((seq+uint32(i))%25)
	}
	return p
}

func TestPayloadMatchesFormula(t *testing.T) {
	check := func(seq, n uint32) {
		t.Helper()
		if got, want := pattern.Slice(seq, n), formulaPayload(seq, n); !bytes.Equal(got, want) {
			t.Fatalf("pattern.Slice(%d, %d) differs from the per-byte formula", seq, n)
		}
	}
	rng := sim.NewRand(1, 2)
	for i := 0; i < 2000; i++ {
		check(rng.Uint32(), uint32(rng.IntN(1461)))
	}
	// Around the wrap, where the phase jumps from 20 to 0: segments ending
	// at, straddling and starting on sequence number 0, and an ISS within
	// one MSS of 2^32 so the very first segment straddles.
	for back := uint32(0); back <= 1500; back++ {
		check(-back, 1460)
	}
	for i := 0; i < 2000; i++ {
		check(-uint32(rng.IntN(netem.MaxTCPPayload+1)), uint32(rng.IntN(netem.MaxTCPPayload+1)))
	}
	check(0, netem.MaxTCPPayload)
	check(1<<32-1, netem.MaxTCPPayload)
	check(1<<32-netem.MaxTCPPayload, netem.MaxTCPPayload)
	if bytes.IndexByte(pattern, '\n') >= 0 {
		t.Fatal("pattern contains a newline: the receiving application would wake")
	}
}

// peer is a scripted TCP receiver wired straight to a Sender, standing in
// for the network and the far stack. It acknowledges every arriving segment
// cumulatively (so holes produce duplicate ACKs), loses the transmissions
// its script names, sends one acknowledgment that lands inside a segment,
// and checks every data byte against the per-byte formula.
//
// Beside that it keeps the reference the send-times queue replaced: a map
// from sequence number to first-transmission time, looked up at sndUna and
// swept of everything below the acknowledgment on each cumulative advance,
// feeding its own minimum-RTT estimate under the same Karn's-rule guard.
type peer struct {
	t    *testing.T
	loop *sim.Loop
	s    *Sender
	iss  uint32 // the sender's, as forced by the test

	rcvNxt      uint32
	ooo         map[uint32]uint32 // out-of-order segments held: seq -> end
	lastArrival sim.Time
	acksSent    int
	unaligned   uint32 // acknowledge this sequence number 700 bytes short, once

	sent  map[uint32]int // transmissions seen per segment
	drop  map[[2]int]bool
	rexmt int

	refTimes  map[uint32]sim.Time
	refNxt    uint32
	refMinRTT time.Duration
}

// Input takes what the sender transmits.
func (p *peer) Input(f *netem.Frame) {
	v := f.View()
	h := &v.TCP
	switch {
	case h.HasFlags(packet.FlagSYN):
		p.loop.Schedule(10*time.Millisecond, func() {
			p.refMinRTT = p.loop.Now().Sub(p.s.started)
			p.deliver(packet.FlagSYN|packet.FlagACK, p.iss+1)
		})
	case len(v.Payload) > 0:
		seq, n := h.Seq, uint32(len(v.Payload))
		if !bytes.Equal(v.Payload, formulaPayload(seq, n)) {
			p.t.Fatalf("segment at %d (+%d): payload differs from the per-byte formula", seq, n)
		}
		if seq == p.refNxt { // first transmissions happen at sndNxt, in order
			p.refTimes[seq] = p.loop.Now()
			p.refNxt += n
		} else {
			p.rexmt++
		}
		p.sent[seq]++
		if p.drop[[2]int{int(seq-p.iss-1) / mss, p.sent[seq]}] {
			return
		}
		// A 100µs serialization floor keeps arrivals — and so the
		// acknowledgments — in transmission order.
		at := max(p.loop.Now().Add(5*time.Millisecond), p.lastArrival.Add(100*time.Microsecond))
		p.lastArrival = at
		p.loop.At(at, func() { p.receive(seq, seq+n) })
	}
}

func (p *peer) receive(seq, end uint32) {
	switch {
	case seq == p.rcvNxt:
		p.rcvNxt = end
		for next, ok := p.ooo[p.rcvNxt]; ok; next, ok = p.ooo[p.rcvNxt] {
			delete(p.ooo, p.rcvNxt)
			p.rcvNxt = next
		}
	case packet.SeqGT(seq, p.rcvNxt):
		p.ooo[seq] = end
	}
	ack := p.rcvNxt
	if ack == p.unaligned {
		ack -= 700
		p.unaligned = 0
	}
	// The return path gets steadily quicker, so every eligible RTT sample
	// is a new minimum: taking one sample too many or too few shows.
	p.acksSent++
	delay := 5*time.Millisecond - time.Duration(min(p.acksSent, 400))*10*time.Microsecond
	p.loop.Schedule(delay, func() { p.deliver(packet.FlagACK, ack) })
}

// deliver hands the sender a segment acknowledging ack, first applying the
// map reference to the sender's state exactly as the old newAck did.
func (p *peer) deliver(flags uint8, ack uint32) {
	s := p.s
	if s.st == stateEstablished && packet.SeqGT(ack, s.sndUna) && packet.SeqLEQ(ack, s.sndNxt) {
		if t0, ok := p.refTimes[s.sndUna]; ok {
			if !s.rexmitLive || packet.SeqLT(s.sndUna, s.lastRexmit) {
				if rtt := p.loop.Now().Sub(t0); rtt > 0 && rtt < p.refMinRTT {
					p.refMinRTT = rtt
				}
			}
		}
		for seq := range p.refTimes {
			if packet.SeqLT(seq, ack) {
				delete(p.refTimes, seq)
			}
		}
	}
	f, err := (*netem.Arena)(nil).NewTCPFrame(1, p.loop.Now(),
		&packet.IPv4Header{Src: s.remote, Dst: s.local},
		&packet.TCPHeader{SrcPort: remotePort, DstPort: localPort, Seq: 7000, Ack: ack, Flags: flags, Window: 65535}, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	s.Input(f)

	if s.minRTT != p.refMinRTT {
		p.t.Fatalf("at %v, ack %d: minRTT %v, map reference %v", p.loop.Now(), ack-p.iss-1, s.minRTT, p.refMinRTT)
	}
	if s.sendTimes.Len() != len(p.refTimes) {
		p.t.Fatalf("at %v, ack %d: %d send times queued, map reference holds %d", p.loop.Now(), ack-p.iss-1, s.sendTimes.Len(), len(p.refTimes))
	}
	if s.sendTimes.Len() > 0 {
		if first := s.sendTimes.Front(); p.refTimes[first.seq] != first.at {
			p.t.Fatalf("at %v: oldest send time (%d, %v) is not in the map reference", p.loop.Now(), first.seq-p.iss-1, first.at)
		}
	}
}

// TestSendTimesMatchMapReference drives a transfer through a fast
// retransmit, a NewReno partial-ACK recovery (two holes in one window), a
// retransmission that is itself lost (so only the RTO recovers), and an
// acknowledgment that is not segment-aligned, holding the queue-based
// minRTT to a map-based reference at every acknowledgment. It runs at three
// initial sequence numbers: ordinary, within one MSS of 2^32 (the first
// data segment straddles the wrap), and placed so the wrap falls inside the
// partial-ACK recovery. Sequence arithmetic is relative, so all three must
// end with the same Stats — the ones the map-based sender produced.
func TestSendTimesMatchMapReference(t *testing.T) {
	const mss, segments = 1460, 100
	for _, iss := range []uint32{12345, 1<<32 - 700, 1<<32 - 21*mss - 9} {
		loop := sim.NewLoop()
		local, remote := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1")
		p := &peer{
			t: t, loop: loop, iss: iss, rcvNxt: iss + 1,
			ooo: map[uint32]uint32{}, sent: map[uint32]int{},
			unaligned: iss + 1 + 30*mss,
			drop:      map[[2]int]bool{{5, 1}: true, {20, 1}: true, {22, 1}: true, {40, 1}: true, {40, 2}: true},
			refTimes:  map[uint32]sim.Time{}, refNxt: iss + 1,
		}
		s := New(loop, Config{Bytes: segments * mss, RTO: 200 * time.Millisecond}, local, remote, &netem.FrameIDs{}, sim.NewRand(3, 4), p)
		p.s = s
		s.Start()
		// Start drew a random ISS for the SYN; the peer does not look at
		// it, so the connection can be moved to the one under test.
		s.iss, s.sndUna, s.sndNxt, s.end = iss, iss, iss+1, iss+1+uint32(s.cfg.Bytes)
		loop.RunUntil(sim.Time(30 * time.Second))

		if !s.Done() {
			t.Fatalf("iss %d: transfer incomplete: %+v", iss, s.Stats())
		}
		st := s.Stats()
		want := Stats{
			BytesAcked: segments * mss, Elapsed: 393130 * time.Microsecond,
			FastRetransmits: 3, Timeouts: 1, FinalDupThresh: 3, CwndHalvings: 4,
		}
		if st != want {
			t.Errorf("iss %d: Stats %+v, the map-based sender produced %+v", iss, st, want)
		}
		if s.minRTT != 9010*time.Microsecond {
			t.Errorf("iss %d: final minRTT %v, the map-based sender produced 9.01ms", iss, s.minRTT)
		}
		if partial := p.rexmt - st.FastRetransmits - st.Timeouts; partial < 1 {
			t.Errorf("iss %d: %d retransmissions, all fast or timed out: no partial-ACK recovery ran", iss, p.rexmt)
		}
	}
}

// TestSteadyStateSegmentAllocs pins the per-segment cost the cross-traffic
// path is built around: with an arena attached, taking an acknowledgment
// and transmitting the segments it releases allocates nothing.
func TestSteadyStateSegmentAllocs(t *testing.T) {
	loop := sim.NewLoop()
	arena := &netem.Arena{}
	local, remote := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1")
	var highest uint32 // end of the newest segment transmitted
	out := netem.NodeFunc(func(f *netem.Frame) {
		if v := f.View(); len(v.Payload) > 0 {
			highest = v.TCP.Seq + uint32(len(v.Payload))
		}
	})
	s := New(loop, Config{Bytes: 64 << 20}, local, remote, &netem.FrameIDs{}, sim.NewRand(5, 6), out)
	s.SetArena(arena)
	ip := packet.IPv4Header{Src: remote, Dst: local}
	tcp := packet.TCPHeader{SrcPort: 80, DstPort: localPort, Seq: 7000, Window: 65535}
	ack := func(flags uint8, n uint32) {
		tcp.Flags, tcp.Ack = flags, n
		f, err := arena.NewTCPFrame(1, loop.Now(), &ip, &tcp, nil)
		if err != nil {
			t.Fatal(err)
		}
		loop.RunFor(time.Millisecond)
		s.Input(f)
	}
	s.Start()
	ack(packet.FlagSYN|packet.FlagACK, s.iss+1)
	round := func() { ack(packet.FlagACK, highest) }
	// Let the window open fully and the arena and queues reach their
	// steady size, then rewind the arena so the measured rounds reuse it.
	for i := 0; i < 200; i++ {
		round()
	}
	arena.Reset()
	before := s.sndNxt
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("steady-state ACK + segments allocate %.2f per round, want 0", avg)
	}
	if sent := (s.sndNxt - before) / 1460; sent < 1000 {
		t.Fatalf("only %d segments sent in the measured rounds: window never opened", sent)
	}
}

// TestRSTInEstablishedAborts: a RST on an established connection ends the
// transfer where it stands. The sender is done, its stats stop moving with
// the clock, its retransmission timer is stopped, and it sends nothing more.
func TestRSTInEstablishedAborts(t *testing.T) {
	loop := sim.NewLoop()
	arena := &netem.Arena{}
	local, remote := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1")
	sent := 0
	var highest uint32
	out := netem.NodeFunc(func(f *netem.Frame) {
		sent++
		if v := f.View(); len(v.Payload) > 0 {
			highest = v.TCP.Seq + uint32(len(v.Payload))
		}
	})
	s := New(loop, Config{Bytes: 1 << 20, RTO: 200 * time.Millisecond}, local, remote, &netem.FrameIDs{}, sim.NewRand(7, 8), out)
	s.SetArena(arena)
	ip := packet.IPv4Header{Src: remote, Dst: local}
	tcp := packet.TCPHeader{SrcPort: 80, DstPort: localPort, Seq: 7000, Window: 65535}
	in := func(flags uint8, ack uint32) {
		tcp.Flags, tcp.Ack = flags, ack
		f, err := arena.NewTCPFrame(1, loop.Now(), &ip, &tcp, nil)
		if err != nil {
			t.Fatal(err)
		}
		loop.RunFor(time.Millisecond)
		s.Input(f)
	}
	s.Start()
	in(packet.FlagSYN|packet.FlagACK, s.iss+1)
	in(packet.FlagACK, highest)
	if s.Done() || !s.rtoTimer.Pending() {
		t.Fatalf("before the RST: done=%v, RTO pending=%v; want an established transfer in flight", s.Done(), s.rtoTimer.Pending())
	}
	in(packet.FlagRST, 0)
	frozen, sentAtRST := s.Stats(), sent
	if !s.Done() || s.rtoTimer.Pending() {
		t.Fatalf("after the RST: done=%v, RTO pending=%v; want done with the timer stopped", s.Done(), s.rtoTimer.Pending())
	}
	loop.RunFor(10 * time.Second)
	if st := s.Stats(); st != frozen || st.Timeouts != 0 || st.BytesAcked == 0 {
		t.Fatalf("stats after the abort moved or are empty: %+v, at the RST %+v", st, frozen)
	}
	if sent != sentAtRST {
		t.Fatalf("the aborted sender sent %d more segments", sent-sentAtRST)
	}
}
