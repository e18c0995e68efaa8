package core

import (
	"net/netip"
	"testing"

	"reorder/internal/packet"
)

// White-box tests of the acknowledgment-pattern classifiers, enumerating
// the full decision tables of §III-B and §III-D including the ambiguous
// and lossy corners that are hard to provoke through the simulator.

func TestClassifySCTTable(t *testing.T) {
	const b = 1000
	cases := []struct {
		name     string
		acks     []uint32
		reversed bool
		fwd, rev Verdict
	}{
		{"normal in-order", []uint32{b + 2, b + 3}, false, VerdictInOrder, VerdictInOrder},
		{"normal reordered", []uint32{b, b + 3}, false, VerdictReordered, VerdictInOrder},
		{"normal acks swapped, in-order fwd", []uint32{b + 3, b + 2}, false, VerdictInOrder, VerdictReordered},
		{"normal acks swapped, reordered fwd", []uint32{b + 3, b}, false, VerdictReordered, VerdictReordered},
		{"reversed in-order", []uint32{b, b + 3}, true, VerdictInOrder, VerdictInOrder},
		{"reversed reordered", []uint32{b + 2, b + 3}, true, VerdictReordered, VerdictInOrder},
		{"reversed acks swapped", []uint32{b + 3, b}, true, VerdictInOrder, VerdictReordered},
		{"lone full ack (paper's lone ack 4)", []uint32{b + 3}, false, VerdictAmbiguous, VerdictLost},
		{"lone mid ack discarded", []uint32{b + 2}, false, VerdictLost, VerdictLost},
		{"lone dup ack discarded", []uint32{b}, false, VerdictLost, VerdictLost},
		{"no acks", nil, false, VerdictLost, VerdictLost},
		{"two garbage acks", []uint32{b + 9, b + 7}, false, VerdictAmbiguous, VerdictAmbiguous},
		{"duplicate full acks", []uint32{b + 3, b + 3}, false, VerdictAmbiguous, VerdictAmbiguous},
		{"garbage mid with full", []uint32{b + 1, b + 3}, false, VerdictAmbiguous, VerdictInOrder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fwd, rev := classifySCT(c.acks, b, c.reversed)
			if fwd != c.fwd || rev != c.rev {
				t.Errorf("classifySCT(%v, reversed=%v) = %v,%v; want %v,%v",
					c.acks, c.reversed, fwd, rev, c.fwd, c.rev)
			}
		})
	}
}

func TestClassifySCTSequenceWraparound(t *testing.T) {
	// The hole straddles the 2^32 boundary: b = 0xffffffff, so b+2 and
	// b+3 wrap. The classifier compares exact values, which wrap the same
	// way.
	b := uint32(0xffffffff)
	fwd, rev := classifySCT([]uint32{b + 2, b + 3}, b, false)
	if fwd != VerdictInOrder || rev != VerdictInOrder {
		t.Fatalf("wraparound in-order: %v,%v", fwd, rev)
	}
	fwd, rev = classifySCT([]uint32{b + 3, b}, b, false)
	if fwd != VerdictReordered || rev != VerdictReordered {
		t.Fatalf("wraparound swapped: %v,%v", fwd, rev)
	}
}

func mkReply(t *testing.T, flags uint8, seq, ack uint32) *packet.Packet {
	t.Helper()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: netip.AddrFrom4([4]byte{10, 0, 1, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 1})},
		&packet.TCPHeader{SrcPort: 80, DstPort: 40000, Seq: seq, Ack: ack, Flags: flags}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClassifySYNTable(t *testing.T) {
	const seq1, seq2 = 5000, 5064
	synAck1 := func(t *testing.T) *packet.Packet {
		return mkReply(t, packet.FlagSYN|packet.FlagACK, 777, seq1+1)
	}
	synAck2 := func(t *testing.T) *packet.Packet {
		return mkReply(t, packet.FlagSYN|packet.FlagACK, 777, seq2+1)
	}
	rst := func(t *testing.T) *packet.Packet {
		return mkReply(t, packet.FlagRST|packet.FlagACK, 0, seq2+1)
	}
	challenge := func(t *testing.T) *packet.Packet {
		return mkReply(t, packet.FlagACK, 778, seq1+1)
	}

	cases := []struct {
		name     string
		replies  []*packet.Packet
		fwd, rev Verdict
	}{
		{"in-order, synack first", []*packet.Packet{synAck1(t), rst(t)}, VerdictInOrder, VerdictInOrder},
		{"in-order, replies swapped", []*packet.Packet{rst(t), synAck1(t)}, VerdictInOrder, VerdictReordered},
		{"SYNs reordered", []*packet.Packet{synAck2(t), rst(t)}, VerdictReordered, VerdictInOrder},
		{"SYNs and replies reordered", []*packet.Packet{rst(t), synAck2(t)}, VerdictReordered, VerdictReordered},
		{"per-spec challenge ack second", []*packet.Packet{synAck1(t), challenge(t)}, VerdictInOrder, VerdictInOrder},
		{"ignore policy: one reply", []*packet.Packet{synAck1(t)}, VerdictInOrder, VerdictLost},
		{"only a RST (no synack)", []*packet.Packet{rst(t)}, VerdictLost, VerdictLost},
		{"nothing", nil, VerdictLost, VerdictLost},
		{"weird ack number", []*packet.Packet{mkReply(t, packet.FlagSYN|packet.FlagACK, 777, 9), rst(t)}, VerdictAmbiguous, VerdictInOrder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fwd, rev := classifySYN(c.replies, seq1, seq2)
			if fwd != c.fwd || rev != c.rev {
				t.Errorf("= %v,%v; want %v,%v", fwd, rev, c.fwd, c.rev)
			}
		})
	}
}

func TestIPIDRanks(t *testing.T) {
	acks := []ackRec{{pos: 0, ipid: 100}, {pos: 1, ipid: 50}, {pos: 2, ipid: 75}}
	ranks := ipidRanks(acks)
	want := []int{2, 0, 1}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestIPIDRanksWraparound(t *testing.T) {
	// 0xfffe < 0xffff < 1 in wrap-aware IPID order.
	acks := []ackRec{{pos: 0, ipid: 1}, {pos: 1, ipid: 0xfffe}, {pos: 2, ipid: 0xffff}}
	ranks := ipidRanks(acks)
	want := []int{2, 0, 1}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestProberPortAllocationWraps(t *testing.T) {
	p := &Prober{nextPort: 0xffff}
	if p.allocPort() != 0xffff {
		t.Fatal("first port wrong")
	}
	if next := p.allocPort(); next < 40000 {
		t.Fatalf("port after wrap = %d, must re-enter ephemeral range", next)
	}
}
