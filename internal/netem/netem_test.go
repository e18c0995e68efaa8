package netem

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

// collector records arrival order and times.
type collector struct {
	loop   *sim.Loop
	frames []*Frame
	times  []sim.Time
}

func (c *collector) Input(f *Frame) {
	c.frames = append(c.frames, f)
	c.times = append(c.times, c.loop.Now())
}

func (c *collector) ids() []uint64 {
	ids := make([]uint64, len(c.frames))
	for i, f := range c.frames {
		ids[i] = f.ID
	}
	return ids
}

func frame(id uint64, n int) *Frame { return &Frame{ID: id, Data: make([]byte, n)} }

func TestLinkDelaysAndPreservesOrder(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	// 8 Mbps -> 1 byte per microsecond.
	l := NewLink(loop, LinkConfig{RateBps: 8_000_000, PropDelay: 100 * time.Microsecond}, sink)
	l.Input(frame(1, 100))
	l.Input(frame(2, 100))
	loop.RunUntilIdle(0)
	if got := sink.ids(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("arrival order = %v, want [1 2]", got)
	}
	// Frame 1: tx 100us + prop 100us = 200us. Frame 2 queues behind: 300us.
	if sink.times[0] != sim.Time(200*time.Microsecond) {
		t.Errorf("frame 1 arrived at %v, want 200µs", sink.times[0])
	}
	if sink.times[1] != sim.Time(300*time.Microsecond) {
		t.Errorf("frame 2 arrived at %v, want 300µs", sink.times[1])
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	l := NewLink(loop, LinkConfig{PropDelay: time.Millisecond}, sink)
	l.Input(frame(1, 1500))
	loop.RunUntilIdle(0)
	if sink.times[0] != sim.Time(time.Millisecond) {
		t.Errorf("arrival at %v, want exactly the propagation delay", sink.times[0])
	}
}

func TestLinkQueueDrop(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	l := NewLink(loop, LinkConfig{RateBps: 8_000, QueueLimit: 2}, sink) // 1ms/byte: slow
	for i := uint64(1); i <= 5; i++ {
		l.Input(frame(i, 10))
	}
	loop.RunUntilIdle(0)
	if len(sink.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2 (queue limit)", len(sink.frames))
	}
	st := l.Stats()
	if st.In != 5 || st.Out != 2 || st.Dropped != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkQueueDrainsOverTime(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	l := NewLink(loop, LinkConfig{RateBps: 8_000_000, QueueLimit: 1}, sink)
	l.Input(frame(1, 100)) // occupies transmitter for 100µs
	loop.RunFor(time.Millisecond)
	l.Input(frame(2, 100)) // transmitter idle again: accepted
	loop.RunUntilIdle(0)
	if len(sink.frames) != 2 {
		t.Fatalf("delivered %d, want 2 after drain", len(sink.frames))
	}
}

func TestSwapperSwapsAdjacent(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	s := NewSwapper(loop, 1.0, sim.NewRand(1, 1), sink) // always swap
	s.Input(frame(1, 40))
	s.Input(frame(2, 40))
	loop.RunUntilIdle(0)
	if got := sink.ids(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("order = %v, want [2 1]", got)
	}
	if s.Stats().Swapped != 1 {
		t.Errorf("Swapped = %d, want 1", s.Stats().Swapped)
	}
}

func TestSwapperNeverSwapsAtZero(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	s := NewSwapper(loop, 0, sim.NewRand(1, 1), sink)
	for i := uint64(1); i <= 20; i++ {
		s.Input(frame(i, 40))
	}
	loop.RunUntilIdle(0)
	for i, id := range sink.ids() {
		if id != uint64(i+1) {
			t.Fatalf("order perturbed at %d: %v", i, sink.ids())
		}
	}
}

func TestSwapperFlushesLonePacket(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	s := NewSwapper(loop, 1.0, sim.NewRand(1, 1), sink)
	s.SetFlushAfter(10 * time.Millisecond)
	s.Input(frame(1, 40))
	loop.RunUntilIdle(0)
	if len(sink.frames) != 1 {
		t.Fatal("lone held packet never flushed")
	}
	if sink.times[0] != sim.Time(10*time.Millisecond) {
		t.Errorf("flushed at %v, want 10ms", sink.times[0])
	}
}

func TestSwapperConservesFrames(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	s := NewSwapper(loop, 0.4, sim.NewRand(2, 3), sink)
	const n = 500
	for i := uint64(1); i <= n; i++ {
		s.Input(frame(i, 40))
		loop.RunFor(10 * time.Microsecond)
	}
	loop.RunUntilIdle(0)
	if len(sink.frames) != n {
		t.Fatalf("delivered %d, want %d", len(sink.frames), n)
	}
	seen := map[uint64]bool{}
	for _, id := range sink.ids() {
		if seen[id] {
			t.Fatalf("frame %d duplicated", id)
		}
		seen[id] = true
	}
}

func TestSwapperOnlyAdjacentExchanges(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	s := NewSwapper(loop, 0.5, sim.NewRand(5, 8), sink)
	const n = 1000
	for i := uint64(1); i <= n; i++ {
		s.Input(frame(i, 40))
		loop.RunFor(time.Microsecond)
	}
	loop.RunUntilIdle(0)
	// Every frame must land within one position of its injection slot.
	for pos, id := range sink.ids() {
		d := int(id) - (pos + 1)
		if d < -1 || d > 1 {
			t.Fatalf("frame %d displaced by %d positions", id, d)
		}
	}
}

func TestSwapperApproximatesProbability(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	const p = 0.10
	s := NewSwapper(loop, p, sim.NewRand(9, 9), sink)
	const pairs = 5000
	for i := uint64(0); i < pairs; i++ {
		s.Input(frame(i*2+1, 40))
		s.Input(frame(i*2+2, 40))
		loop.RunUntilIdle(0) // drain between pairs so swaps are within-pair
	}
	rate := float64(s.Stats().Swapped) / pairs
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("swap rate = %.3f, want ≈ %.2f", rate, p)
	}
}

func TestSwapperTimeVaryingProbability(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	// Probability 1 before t=1s, 0 after.
	s := NewSwapperFunc(loop, func(t sim.Time) float64 {
		if t < sim.Time(time.Second) {
			return 1
		}
		return 0
	}, sim.NewRand(1, 1), sink)
	s.Input(frame(1, 40))
	s.Input(frame(2, 40))
	loop.RunUntil(sim.Time(2 * time.Second))
	s.Input(frame(3, 40))
	s.Input(frame(4, 40))
	loop.RunUntilIdle(0)
	got := sink.ids()
	want := []uint64{2, 1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestLossRate(t *testing.T) {
	l := NewLoss(0.25, sim.NewRand(4, 4), Discard)
	const n = 10000
	for i := 0; i < n; i++ {
		l.Input(frame(uint64(i), 40))
	}
	st := l.Stats()
	rate := float64(st.Dropped) / n
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("loss rate = %.3f, want ≈ 0.25", rate)
	}
	if st.In != n || st.Out+st.Dropped != n {
		t.Errorf("conservation violated: %+v", st)
	}
}

func TestDelayFixed(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	d := NewDelay(loop, 5*time.Millisecond, 0, sim.NewRand(1, 1), sink)
	d.Input(frame(1, 40))
	loop.RunUntilIdle(0)
	if sink.times[0] != sim.Time(5*time.Millisecond) {
		t.Errorf("arrival at %v, want 5ms", sink.times[0])
	}
}

func TestDelayJitterBounded(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	d := NewDelay(loop, time.Millisecond, time.Millisecond, sim.NewRand(6, 6), sink)
	for i := uint64(0); i < 200; i++ {
		d.Input(frame(i, 40))
	}
	start := loop.Now()
	loop.RunUntilIdle(0)
	for _, at := range sink.times {
		dl := at.Sub(start)
		if dl < time.Millisecond || dl >= 2*time.Millisecond {
			t.Fatalf("delay %v outside [1ms, 2ms)", dl)
		}
	}
}

func TestStripedTrunkConservesAndKeepsMemberFIFO(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	tr := NewStripedTrunk(loop, TrunkConfig{FanOut: 2, BurstProb: 0.5, MeanBurstBytes: 4000}, sim.NewRand(3, 1), sink)
	const n = 400
	for i := uint64(1); i <= n; i++ {
		tr.Input(frame(i, 40))
		loop.RunFor(2 * time.Microsecond)
	}
	loop.RunUntilIdle(0)
	if len(sink.frames) != n {
		t.Fatalf("delivered %d, want %d", len(sink.frames), n)
	}
	// Member FIFO: frames with the same parity (same member under 2-way
	// round robin) must arrive in injection order.
	var lastEven, lastOdd uint64
	for _, id := range sink.ids() {
		if id%2 == 0 {
			if id < lastEven {
				t.Fatalf("member FIFO violated for even stream: %d after %d", id, lastEven)
			}
			lastEven = id
		} else {
			if id < lastOdd {
				t.Fatalf("member FIFO violated for odd stream: %d after %d", id, lastOdd)
			}
			lastOdd = id
		}
	}
}

func TestStripedTrunkNoBurstsNoReorder(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	tr := NewStripedTrunk(loop, TrunkConfig{FanOut: 2, BurstProb: 0}, sim.NewRand(3, 1), sink)
	for i := uint64(1); i <= 100; i++ {
		tr.Input(frame(i, 40))
		loop.RunFor(time.Microsecond)
	}
	loop.RunUntilIdle(0)
	for i, id := range sink.ids() {
		if id != uint64(i+1) {
			t.Fatalf("reordering without queue imbalance: %v", sink.ids())
		}
	}
}

// reorderRateAtGap measures the probability that a back-to-back pair with
// the given spacing is exchanged by the trunk.
func reorderRateAtGap(t *testing.T, gap time.Duration, pairs int) float64 {
	t.Helper()
	loop := sim.NewLoop()
	cfg := TrunkConfig{FanOut: 2, RateBps: 1_000_000_000, BurstProb: 0.3, MeanBurstBytes: 2500}
	exchanged := 0
	for i := 0; i < pairs; i++ {
		sink := &collector{loop: loop}
		tr := NewStripedTrunk(loop, cfg, sim.NewRand(uint64(i), 77), sink)
		tr.Input(frame(1, 40))
		loop.RunFor(gap)
		tr.Input(frame(2, 40))
		loop.RunUntilIdle(0)
		if sink.ids()[0] == 2 {
			exchanged++
		}
	}
	return float64(exchanged) / float64(pairs)
}

func TestStripedTrunkGapDependence(t *testing.T) {
	// The Fig 7 shape: reordering decays as the inter-packet gap grows.
	r0 := reorderRateAtGap(t, 0, 2000)
	r50 := reorderRateAtGap(t, 50*time.Microsecond, 2000)
	r250 := reorderRateAtGap(t, 250*time.Microsecond, 2000)
	if r0 < 0.05 {
		t.Errorf("back-to-back reorder rate = %.3f, want >= 0.05", r0)
	}
	if r50 >= r0 {
		t.Errorf("rate did not decay: r0=%.3f r50=%.3f", r0, r50)
	}
	if r250 > 0.01 {
		t.Errorf("rate at 250µs = %.3f, want ≈ 0", r250)
	}
}

func lbFrame(t *testing.T, src netip.Addr, sport uint16, id uint64) *Frame {
	t.Helper()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: src, Dst: netip.AddrFrom4([4]byte{10, 0, 0, 99})},
		&packet.TCPHeader{SrcPort: sport, DstPort: 80, Flags: packet.FlagSYN}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Frame{ID: id, Data: raw}
}

func TestLoadBalancerPinsFlows(t *testing.T) {
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for _, mode := range []BalanceMode{HashFourTuple, PerFlowTable} {
		b0, b1 := &collector{}, &collector{}
		loop := sim.NewLoop()
		b0.loop, b1.loop = loop, loop
		lb := NewLoadBalancer(mode, b0, b1)
		// Same 4-tuple repeatedly: must always hit the same backend. This is
		// the property the SYN test exploits.
		for i := uint64(0); i < 10; i++ {
			lb.Input(lbFrame(t, src, 5555, i))
		}
		if len(b0.frames) != 0 && len(b1.frames) != 0 {
			t.Fatalf("mode %v: one flow split across backends (%d/%d)", mode, len(b0.frames), len(b1.frames))
		}
		if len(b0.frames)+len(b1.frames) != 10 {
			t.Fatalf("mode %v: frames lost", mode)
		}
	}
}

func TestLoadBalancerSpreadsConnections(t *testing.T) {
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	b0, b1 := &collector{}, &collector{}
	loop := sim.NewLoop()
	b0.loop, b1.loop = loop, loop
	lb := NewLoadBalancer(HashFourTuple, b0, b1)
	// Many distinct source ports: both backends should see traffic. This is
	// what breaks the dual connection test (Fig 3).
	for p := uint16(4000); p < 4064; p++ {
		lb.Input(lbFrame(t, src, p, uint64(p)))
	}
	if len(b0.frames) == 0 || len(b1.frames) == 0 {
		t.Fatalf("64 distinct flows all landed on one backend (%d/%d)", len(b0.frames), len(b1.frames))
	}
}

func TestLoadBalancerPerFlowTableStable(t *testing.T) {
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	loop := sim.NewLoop()
	b0, b1 := &collector{loop: loop}, &collector{loop: loop}
	lb := NewLoadBalancer(PerFlowTable, b0, b1)
	f := lbFrame(t, src, 1234, 1)
	k, _ := packet.PeekFlow(f.Data)
	lb.Input(f)
	want := lb.Backend(k)
	for i := uint64(2); i < 8; i++ {
		lb.Input(lbFrame(t, src, 1234, i))
		if lb.Backend(k) != want {
			t.Fatal("table entry moved")
		}
	}
}

func TestLoadBalancerDropsUnparseable(t *testing.T) {
	loop := sim.NewLoop()
	b := &collector{loop: loop}
	lb := NewLoadBalancer(HashFourTuple, b)
	lb.Input(&Frame{ID: 1, Data: []byte{1, 2, 3}})
	if lb.Stats().Dropped != 1 || len(b.frames) != 0 {
		t.Fatal("garbage frame not dropped")
	}
}

func TestTapObservesAndForwards(t *testing.T) {
	loop := sim.NewLoop()
	sink := &collector{loop: loop}
	var seen []uint64
	tap := NewTap(loop, sink, func(f *Frame, at sim.Time) { seen = append(seen, f.ID) })
	tap.Input(frame(7, 40))
	if len(seen) != 1 || seen[0] != 7 || len(sink.frames) != 1 {
		t.Fatal("tap lost or failed to observe the frame")
	}
}

func TestFrameIDsUniqueAndNonzero(t *testing.T) {
	var s FrameIDs
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if id == 0 || seen[id] {
			t.Fatalf("id %d zero or duplicated", id)
		}
		seen[id] = true
	}
}

func BenchmarkLinkForwarding(b *testing.B) {
	loop := sim.NewLoop()
	l := NewLink(loop, LinkConfig{RateBps: 1_000_000_000, PropDelay: time.Millisecond}, Discard)
	f := frame(1, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Input(f)
		loop.RunUntilIdle(0)
	}
}

func BenchmarkBoundedLinkForwarding(b *testing.B) {
	loop := sim.NewLoop()
	l := NewLink(loop, LinkConfig{RateBps: 1_000_000_000, PropDelay: time.Millisecond, QueueLimit: 32}, Discard)
	f := frame(1, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Input(f)
		loop.RunUntilIdle(0)
	}
}

// BenchmarkLinkBacklog is the per-frame cost of a link by how many frames it
// holds in flight — the routed topologies' bottleneck links hold tens, a
// point-to-point path one — and of the Router→Link hop those topologies are
// made of. Each iteration feeds a burst and drains it; ns/frame is reported.
func BenchmarkLinkBacklog(b *testing.B) {
	run := func(b *testing.B, burst int, loop *sim.Loop, in Node, f *Frame) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < burst; k++ {
				in.Input(f)
			}
			loop.RunUntilIdle(0)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/frame")
	}
	// 512 bytes serialize in ~4µs, so a burst of 32 is in flight together
	// for the whole millisecond of propagation.
	cfg := LinkConfig{RateBps: 1_000_000_000, PropDelay: time.Millisecond, QueueLimit: 32}
	for _, burst := range []int{1, 32} {
		b.Run(fmt.Sprintf("inflight-%d", burst), func(b *testing.B) {
			loop := sim.NewLoop()
			run(b, burst, loop, NewLink(loop, cfg, Discard), frame(1, 512))
		})
	}
	b.Run("router-hop-inflight-32", func(b *testing.B) {
		loop := sim.NewLoop()
		ip := &packet.IPv4Header{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
		f, err := (*Arena)(nil).NewTCPFrame(1, 0, ip, &packet.TCPHeader{SrcPort: 1, DstPort: 2}, make([]byte, 472))
		if err != nil {
			b.Fatal(err)
		}
		r := NewRouter()
		r.AddRoute(ip.Dst, r.AddGroup(NewLink(loop, cfg, Discard)))
		run(b, 32, loop, r, f)
	})
}

func BenchmarkStripedTrunk(b *testing.B) {
	loop := sim.NewLoop()
	tr := NewStripedTrunk(loop, TrunkConfig{FanOut: 2, BurstProb: 0.3, MeanBurstBytes: 2500}, sim.NewRand(1, 1), Discard)
	f := frame(1, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Input(f)
		loop.RunUntilIdle(0)
	}
}
