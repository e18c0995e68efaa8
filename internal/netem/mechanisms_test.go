package netem

import (
	"net/netip"
	"testing"
	"time"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

func TestMultiPathStepSignature(t *testing.T) {
	// Two member paths 100µs apart in delay: back-to-back pairs reorder
	// (second packet takes the faster path), pairs gapped beyond the
	// spread never do.
	reorderAt := func(gap time.Duration) bool {
		loop := sim.NewLoop()
		sink := &collector{loop: loop}
		mp := NewMultiPath(loop, MultiPathConfig{
			Delays: []time.Duration{time.Millisecond + 100*time.Microsecond, time.Millisecond},
		}, sim.NewRand(1, 1), sink)
		mp.Input(frame(1, 40))
		loop.RunFor(gap)
		mp.Input(frame(2, 40))
		loop.RunUntilIdle(0)
		return sink.ids()[0] == 2
	}
	if !reorderAt(0) {
		t.Error("back-to-back pair not reordered across 100µs delay spread")
	}
	if !reorderAt(50 * time.Microsecond) {
		t.Error("pair inside the spread not reordered")
	}
	if reorderAt(150 * time.Microsecond) {
		t.Error("pair beyond the spread reordered")
	}
}

func TestMultiPathMemberFIFO(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	mp := NewMultiPath(loop, MultiPathConfig{
		Delays: []time.Duration{time.Millisecond, time.Millisecond},
		Jitter: 500 * time.Microsecond,
	}, sim.NewRand(2, 2), sink)
	const n = 200
	for i := uint64(1); i <= n; i++ {
		mp.Input(frame(i, 40))
	}
	loop.RunUntilIdle(0)
	if len(sink.frames) != n {
		t.Fatalf("delivered %d/%d", len(sink.frames), n)
	}
	var lastEven, lastOdd uint64
	for _, id := range sink.ids() {
		if id%2 == 0 {
			if id < lastEven {
				t.Fatal("member FIFO violated")
			}
			lastEven = id
		} else {
			if id < lastOdd {
				t.Fatal("member FIFO violated")
			}
			lastOdd = id
		}
	}
}

func TestMultiPathDefaults(t *testing.T) {
	loop := sim.NewLoop()
	mp := NewMultiPath(loop, MultiPathConfig{}, sim.NewRand(1, 1), Discard)
	mp.Input(frame(1, 40))
	loop.RunUntilIdle(0)
	if mp.Stats().Out != 1 {
		t.Fatal("default config dropped the frame")
	}
}

func TestARQReordersOutOfOrderVariant(t *testing.T) {
	// Find a seed where the first frame needs recovery and the second
	// doesn't; with error rate 0.5 that's common.
	for seed := uint64(0); seed < 64; seed++ {
		loop := sim.NewLoop()
		sink := &collector{loop: loop}
		l := NewARQLink(loop, ARQConfig{FrameErrorRate: 0.5, RetransmitDelay: 2 * time.Millisecond}, sim.NewRand(seed, 1), sink)
		l.Input(frame(1, 40))
		loop.RunFor(100 * time.Microsecond)
		l.Input(frame(2, 40))
		loop.RunUntilIdle(0)
		if len(sink.frames) == 2 && sink.ids()[0] == 2 {
			// Frame 1 recovered late: gap between deliveries must be on
			// the order of the retransmit delay.
			if lag := sink.times[1].Sub(sink.times[0]); lag < time.Millisecond {
				t.Fatalf("recovered frame lag %v, want ~2ms", lag)
			}
			return
		}
	}
	t.Fatal("no seed produced the recovery-reorder pattern")
}

func TestARQInOrderVariantNeverReorders(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	l := NewARQLink(loop, ARQConfig{FrameErrorRate: 0.4, RetransmitDelay: time.Millisecond, InOrder: true}, sim.NewRand(4, 4), sink)
	const n = 300
	for i := uint64(1); i <= n; i++ {
		l.Input(frame(i, 40))
		loop.RunFor(50 * time.Microsecond)
	}
	loop.RunUntilIdle(0)
	prev := uint64(0)
	for _, id := range sink.ids() {
		if id < prev {
			t.Fatal("in-order ARQ reordered")
		}
		prev = id
	}
	if l.Stats().Swapped == 0 {
		t.Fatal("no frame ever needed recovery at 40% FER")
	}
}

func TestARQDropsAfterMaxRetries(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	l := NewARQLink(loop, ARQConfig{FrameErrorRate: 1.0, RetransmitDelay: time.Millisecond, MaxRetries: 3}, sim.NewRand(5, 5), sink)
	for i := uint64(1); i <= 50; i++ {
		l.Input(frame(i, 40))
	}
	loop.RunUntilIdle(0)
	if len(sink.frames) != 0 {
		t.Fatal("FER 1.0 delivered frames")
	}
	if l.Stats().Dropped != 50 {
		t.Fatalf("Dropped = %d", l.Stats().Dropped)
	}
}

func tosFrame(t *testing.T, id uint64, tos uint8) *Frame {
	t.Helper()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}), TOS: tos},
		&packet.TCPHeader{SrcPort: 1, DstPort: 2, Seq: uint32(id), Flags: packet.FlagACK}, make([]byte, 400))
	if err != nil {
		t.Fatal(err)
	}
	return &Frame{ID: id, Data: raw}
}

func TestPriorityQueueExpeditesHighClass(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	q := NewPriorityQueue(loop, PriorityConfig{RateBps: 8_000_000}, sink) // slow: 1 byte/µs
	// Three low-priority packets queue up; then a high-priority one
	// arrives and must overtake the queued (not in-flight) ones.
	q.Input(tosFrame(t, 1, 0))
	q.Input(tosFrame(t, 2, 0))
	q.Input(tosFrame(t, 3, 0))
	q.Input(tosFrame(t, 4, 0x10))
	loop.RunUntilIdle(0)
	ids := sink.ids()
	if ids[0] != 1 {
		t.Fatalf("in-flight packet preempted: %v", ids)
	}
	if ids[1] != 4 {
		t.Fatalf("high-priority packet did not overtake the queue: %v", ids)
	}
}

func TestPriorityQueueSingleClassInOrder(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	q := NewPriorityQueue(loop, PriorityConfig{}, sink)
	for i := uint64(1); i <= 50; i++ {
		q.Input(tosFrame(t, i, 0))
	}
	loop.RunUntilIdle(0)
	for i, id := range sink.ids() {
		if id != uint64(i+1) {
			t.Fatal("single-class flow reordered")
		}
	}
}

func TestPriorityQueueConserves(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	q := NewPriorityQueue(loop, PriorityConfig{}, sink)
	rng := sim.NewRand(7, 7)
	const n = 200
	for i := uint64(1); i <= n; i++ {
		tos := uint8(0)
		if rng.Bool(0.3) {
			tos = 0x10
		}
		q.Input(tosFrame(t, i, tos))
		loop.RunFor(time.Duration(rng.IntN(100)) * time.Microsecond)
	}
	loop.RunUntilIdle(0)
	if len(sink.frames) != n {
		t.Fatalf("delivered %d/%d", len(sink.frames), n)
	}
}
