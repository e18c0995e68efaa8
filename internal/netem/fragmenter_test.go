package netem

import (
	"net/netip"
	"testing"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

func dataFrame(t *testing.T, id uint64, payload int, df bool) *Frame {
	t.Helper()
	ip := &packet.IPv4Header{
		Src: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
		Dst: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		ID:  uint16(id),
	}
	if df {
		ip.Flags = packet.FlagDF
	}
	raw, err := packet.AppendTCP(nil, ip,
		&packet.TCPHeader{SrcPort: 80, DstPort: 4000, Seq: 1, Flags: packet.FlagACK},
		make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	return &Frame{ID: id, Data: raw}
}

func TestFragmenterSplitsOversized(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	fr := NewFragmenter(576, sink)
	fr.Input(dataFrame(t, 1, 1400, false))
	if len(sink.frames) < 3 {
		t.Fatalf("emitted %d fragments, want >= 3", len(sink.frames))
	}
	for _, f := range sink.frames {
		if f.ID != 1 {
			t.Fatal("fragment lost the original frame ID")
		}
		if len(f.Data) > 576 {
			t.Fatalf("fragment %d bytes over MTU", len(f.Data))
		}
	}
	// Reassembling the emitted fragments restores the datagram.
	r := packet.NewReassembler()
	var whole []byte
	for _, f := range sink.frames {
		out, err := r.Input(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			whole = out
		}
	}
	p, err := packet.Decode(whole)
	if err != nil || len(p.Payload) != 1400 {
		t.Fatalf("reassembly: %v, payload %d", err, len(p.Payload))
	}
}

func TestFragmenterPassesSmall(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	fr := NewFragmenter(576, sink)
	f := dataFrame(t, 2, 100, true)
	fr.Input(f)
	if len(sink.frames) != 1 || sink.frames[0] != f {
		t.Fatal("small frame not passed through untouched")
	}
}

func TestFragmenterDropsDFOversized(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	fr := NewFragmenter(576, sink)
	fr.Input(dataFrame(t, 3, 1400, true))
	if len(sink.frames) != 0 {
		t.Fatal("DF-marked oversized frame forwarded")
	}
	if fr.Stats().Dropped != 1 {
		t.Fatalf("stats: %+v", fr.Stats())
	}
}
