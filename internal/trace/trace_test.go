package trace

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

func tcpFrame(t *testing.T, id uint64, seq uint32) *netem.Frame {
	t.Helper()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2})},
		&packet.TCPHeader{SrcPort: 1, DstPort: 2, Seq: seq, Flags: packet.FlagACK}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &netem.Frame{ID: id, Data: raw}
}

func TestCaptureRecordsOrderAndTime(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCapture("probe-egress")
	tap := c.Tap(loop, netem.Discard)
	tap.Input(tcpFrame(t, 10, 1))
	loop.RunFor(time.Millisecond)
	tap.Input(tcpFrame(t, 20, 2))
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	recs := c.Records()
	if recs[0].FrameID != 10 || recs[1].FrameID != 20 {
		t.Fatal("order wrong")
	}
	if recs[0].Index != 0 || recs[1].Index != 1 {
		t.Fatal("indices wrong")
	}
	if recs[1].At != sim.Time(time.Millisecond) {
		t.Fatalf("timestamp = %v", recs[1].At)
	}
	p, err := recs[0].Decode()
	if err != nil || p.TCP.Seq != 1 {
		t.Fatalf("Decode: %v", err)
	}
}

func TestExchanged(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCapture("x")
	tap := c.Tap(loop, netem.Discard)
	tap.Input(tcpFrame(t, 2, 0)) // frame 2 arrives first
	tap.Input(tcpFrame(t, 1, 0)) // frame 1 (sent first) arrives second
	if ex, ok := c.Exchanged(1, 2); !ok || !ex {
		t.Fatalf("Exchanged(1,2) = %v,%v; want true,true", ex, ok)
	}
	if ex, ok := c.Exchanged(2, 1); !ok || ex {
		t.Fatalf("Exchanged(2,1) = %v,%v; want false,true", ex, ok)
	}
	if _, ok := c.Exchanged(1, 99); ok {
		t.Fatal("Exchanged with missing frame reported ok")
	}
}

func TestPosition(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCapture("x")
	tap := c.Tap(loop, netem.Discard)
	tap.Input(tcpFrame(t, 5, 0))
	if i, ok := c.Position(5); !ok || i != 0 {
		t.Fatalf("Position(5) = %d,%v", i, ok)
	}
	if _, ok := c.Position(6); ok {
		t.Fatal("Position of uncaptured frame ok")
	}
}

func TestReset(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCapture("x")
	tap := c.Tap(loop, netem.Discard)
	tap.Input(tcpFrame(t, 1, 0))
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset did not clear records")
	}
	if _, ok := c.Position(1); ok {
		t.Fatal("Reset did not clear index")
	}
}

func TestTapForwards(t *testing.T) {
	loop := sim.NewLoop()
	var forwarded int
	c := NewCapture("x")
	tap := c.Tap(loop, netem.NodeFunc(func(*netem.Frame) { forwarded++ }))
	tap.Input(tcpFrame(t, 1, 0))
	if forwarded != 1 {
		t.Fatal("tap swallowed the frame")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCapture("x")
	tap := c.Tap(loop, netem.Discard)
	tap.Input(tcpFrame(t, 1, 100))
	loop.RunFor(1500 * time.Millisecond) // exercises sec + usec split
	tap.Input(tcpFrame(t, 2, 200))

	var buf bytes.Buffer
	if err := c.WritePcap(&buf); err != nil {
		t.Fatalf("WritePcap: %v", err)
	}
	back, err := ReadPcap(&buf)
	if err != nil {
		t.Fatalf("ReadPcap: %v", err)
	}
	if back.Len() != 2 {
		t.Fatalf("read %d records", back.Len())
	}
	r := back.Records()
	p0, err := r[0].Decode()
	if err != nil || p0.TCP.Seq != 100 {
		t.Fatalf("record 0: %v", err)
	}
	p1, err := r[1].Decode()
	if err != nil || p1.TCP.Seq != 200 {
		t.Fatalf("record 1: %v", err)
	}
	if r[1].At != sim.Time(1500*time.Millisecond) {
		t.Fatalf("timestamp = %v, want 1.5s", r[1].At)
	}
}

func TestPcapHeaderFields(t *testing.T) {
	c := NewCapture("x")
	var buf bytes.Buffer
	if err := c.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 24 {
		t.Fatalf("empty capture file = %d bytes, want 24", len(b))
	}
	if b[0] != 0xd4 || b[1] != 0xc3 || b[2] != 0xb2 || b[3] != 0xa1 {
		t.Fatalf("magic bytes = % x", b[:4])
	}
	if b[20] != 101 {
		t.Fatalf("link type byte = %d, want 101 (raw IP)", b[20])
	}
}

func TestReadPcapErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", make([]byte, 10)},
		{"bad magic", make([]byte, 24)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPcap(bytes.NewReader(tc.data)); !errors.Is(err, ErrBadPcap) {
				t.Fatalf("error = %v, want ErrBadPcap", err)
			}
		})
	}
}

func TestReadPcapTruncatedRecord(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCapture("x")
	tap := c.Tap(loop, netem.Discard)
	tap.Input(tcpFrame(t, 1, 1))
	var buf bytes.Buffer
	if err := c.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadPcap(bytes.NewReader(cut)); !errors.Is(err, ErrBadPcap) {
		t.Fatalf("error = %v, want ErrBadPcap", err)
	}
}

func TestDuplicateFrameIDKeepsFirstPosition(t *testing.T) {
	// A retransmitted frame (same ID re-injected) must not move the
	// ground-truth position of its first arrival.
	loop := sim.NewLoop()
	c := NewCapture("x")
	tap := c.Tap(loop, netem.Discard)
	tap.Input(tcpFrame(t, 1, 0))
	tap.Input(tcpFrame(t, 2, 0))
	tap.Input(tcpFrame(t, 1, 0)) // duplicate
	if i, _ := c.Position(1); i != 0 {
		t.Fatalf("Position(1) = %d after duplicate, want 0", i)
	}
	if c.Len() != 3 {
		t.Fatal("duplicate not recorded in the log")
	}
}
