package main

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/ipid"
	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
	"reorder/internal/simnet"
	"reorder/internal/tcpsender"
	"reorder/internal/tcpstack"
)

// Layer legs time public calls of one layer from outside, with everything
// below it either absent (Discard sinks, no-op jobs) or named in the metric.
// They are workload-independent unless they take a *workload.

const legRounds = 5

var (
	legClient = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	legServer = netip.AddrFrom4([4]byte{10, 0, 0, 2})
	farFuture = sim.Time(0).Add(time.Hour)
)

// iters scales a leg's iteration count with -scale so the test run stays
// short; the defined benchmark (-scale 1) runs n.
func (b *bench) iters(n int) int {
	return max(1, int(float64(n)*min(1, b.opt.scale)))
}

func (b *bench) leg(name string, value float64, unit string, n int) {
	b.legs[name] = metric{Name: name, Value: value, Unit: unit, N: n}
}

// timed runs one leg under a span.
func (b *bench) timed(name string, iters int, setup, fn func()) (nsPerOp, allocsPerOp float64) {
	sp := b.spans.begin("leg/"+name, "", 0)
	defer b.spans.end(sp)
	return timeOp(legRounds, iters, setup, fn)
}

// legMetrics returns the workload-independent leg results in name order.
func (b *bench) legMetrics() []metric {
	var ms []metric
	for _, m := range b.legs {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// runLegs runs the workload-independent legs once and the per-workload legs
// for each of wls.
func (b *bench) runLegs(wls []*workload) error {
	b.legs = map[string]metric{}
	for _, leg := range []func() error{
		b.simLegs, b.packetLegs, b.netemLegs, b.tcpstackLegs, b.tcpsenderLeg,
		b.simnetLegs, b.coreLegs, b.campaignLegs,
	} {
		if err := leg(); err != nil {
			return err
		}
	}
	for _, w := range wls {
		if err := b.workloadLegs(w); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

func (b *bench) simLegs() error {
	noop := func() {}
	preload := func(depth int) *sim.Loop {
		loop := sim.NewLoop()
		for i := 0; i < depth; i++ {
			loop.At(farFuture+sim.Time(i), noop)
		}
		return loop
	}
	n := b.iters(400_000)
	for _, depth := range []int{8, 256} {
		loop := preload(depth)
		ns, _ := b.timed("sim.event", n, nil, func() {
			loop.Schedule(time.Microsecond, noop)
			loop.Step()
		})
		b.leg(fmt.Sprintf("sim.ns_per_event_d%d", depth), ns, "ns", n)
	}
	loop := preload(8)
	tm := loop.At(farFuture, noop)
	i := 0
	ns, _ := b.timed("sim.reschedule", n, nil, func() {
		i++
		tm = loop.Reschedule(tm, farFuture+sim.Time(i&1023), noop)
	})
	b.leg("sim.ns_per_reschedule", ns, "ns", n)
	return nil
}

func legHeaders() (*packet.IPv4Header, *packet.TCPHeader) {
	return &packet.IPv4Header{Src: legClient, Dst: legServer, ID: 1},
		&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 1, Ack: 1, Flags: packet.FlagACK, Window: 65535}
}

func (b *bench) packetLegs() error {
	ip, tcp := legHeaders()
	n := b.iters(200_000)
	var allocs float64
	for _, size := range []int{0, 1460} {
		payload := make([]byte, size)
		buf, err := packet.AppendTCP(nil, ip, tcp, payload)
		if err != nil {
			return err
		}
		ns, al := b.timed("packet.append", n, nil, func() {
			buf, _ = packet.AppendTCP(buf[:0], ip, tcp, payload)
		})
		b.leg(fmt.Sprintf("packet.append_tcp_ns_%db", size), ns, "ns", n)
		allocs += al
		var pkt packet.Packet
		if err := packet.DecodeInto(&pkt, buf); err != nil {
			return err
		}
		ns, al = b.timed("packet.decode", n, nil, func() {
			_ = packet.DecodeInto(&pkt, buf) // checked once above
		})
		b.leg(fmt.Sprintf("packet.decode_into_ns_%db", size), ns, "ns", n)
		allocs += al
	}
	b.leg("packet.allocs_per_op", allocs/4, "allocs", n)

	// One full-size segment cut for a 576-byte hop and put back together.
	dgram, err := packet.AppendTCP(nil, ip, tcp, make([]byte, 1460))
	if err != nil {
		return err
	}
	re := packet.NewReassembler()
	var ferr error
	n = b.iters(50_000)
	ns, _ := b.timed("packet.fragment", n, nil, func() {
		frags, err := packet.Fragment(dgram, 576)
		if err != nil {
			ferr = err
		}
		for _, f := range frags {
			if _, err := re.Input(f); err != nil {
				ferr = err
			}
		}
	})
	b.leg("packet.fragment_reassemble_ns_1460b", ns, "ns", n)
	return ferr
}

func (b *bench) netemLegs() error {
	ip, tcp := legHeaders()
	arena, ids := &netem.Arena{}, &netem.FrameIDs{}
	payload := make([]byte, 512)
	f, err := arena.NewTCPFrame(ids.Next(), 0, ip, tcp, payload)
	if err != nil {
		return err
	}
	loop := sim.NewLoop()
	rng := sim.NewRand(1, 1)
	// Rewritten frames come from their own arena, rewound outside the clock.
	mbArena := &netem.Arena{}
	router := netem.NewRouter()
	router.AddRoute(legServer, router.AddGroup(netem.Discard, netem.Discard))
	n := b.iters(100_000)
	var linkAllocs float64
	for _, e := range []struct {
		name string
		node netem.Node
	}{
		{"link", netem.NewLink(loop, netem.LinkConfig{RateBps: 1_000_000_000, PropDelay: time.Millisecond}, netem.Discard)},
		{"swapper", netem.NewSwapper(loop, 0.1, rng, netem.Discard)},
		{"trunk", netem.NewStripedTrunk(loop, netem.TrunkConfig{FanOut: 2, RateBps: 622_000_000, BurstProb: 0.1, MeanBurstBytes: 1000}, rng, netem.Discard)},
		{"router", router},
		{"middlebox_inert", netem.NewMiddlebox(netem.MiddleboxConfig{}, loop, rng, mbArena, ids, netem.Discard)},
		{"middlebox_rewrite", netem.NewMiddlebox(netem.MiddleboxConfig{TTLClamp: 8, WindowClamp: 2048, RewriteTOS: true, TOS: 1}, loop, rng, mbArena, ids, netem.Discard)},
	} {
		node := e.node
		i := 0
		ns, al := b.timed("netem."+e.name, n, nil, func() {
			node.Input(f)
			loop.RunUntilIdle(0)
			if i++; i&1023 == 0 {
				mbArena.Reset()
			}
		})
		b.leg("netem."+e.name+"_ns_per_frame", ns, "ns", n)
		if e.name == "link" {
			linkAllocs = al
		}
	}
	b.leg("netem.allocs_per_frame", linkAllocs, "allocs", n)

	// Materialization is what a frame pays on leaving the zero-copy path:
	// the cost of building a view frame and encoding it, less the cost of
	// building it alone.
	build := func(materialize bool) float64 {
		i := 0
		ns, _ := b.timed("netem.materialize", n, nil, func() {
			vf, err := mbArena.NewTCPFrame(1, 0, ip, tcp, payload)
			if err == nil && materialize {
				vf.Materialize()
			}
			if i++; i&1023 == 0 {
				mbArena.Reset()
			}
		})
		return ns
	}
	b.leg("netem.materialize_ns_per_frame", max(0, build(true)-build(false)), "ns", n)
	return nil
}

func (b *bench) tcpstackLegs() error {
	loop, arena, ids := sim.NewLoop(), &netem.Arena{}, &netem.FrameIDs{}
	var last *netem.Frame
	sink := netem.NodeFunc(func(f *netem.Frame) { last = f })
	cfg := tcpstack.Config{ObjectSize: 1}
	gen := ipid.NewGlobalCounter(1)
	st := tcpstack.New(loop, cfg, legServer, gen, ids, sim.NewRand(1, 1), sink)
	st.SetArena(arena)
	ip := &packet.IPv4Header{Src: legClient, Dst: legServer, ID: 1}
	var legErr error
	send := func(tcp *packet.TCPHeader, payload []byte) {
		f, err := arena.NewTCPFrame(ids.Next(), loop.Now(), ip, tcp, payload)
		if err != nil {
			legErr = err
			return
		}
		st.Input(f)
	}
	reset := func() {
		loop.Reset()
		arena.Reset()
		st.Reset(cfg, gen, sink)
		st.Listen(80)
	}
	const iss = 1000
	handshake := func(port uint16) (serverSeq uint32) {
		last = nil
		send(&packet.TCPHeader{SrcPort: port, DstPort: 80, Seq: iss, Flags: packet.FlagSYN, Window: 65535,
			Options: []packet.TCPOption{packet.MSSOption(1460)}}, nil)
		if last == nil || last.View() == nil {
			legErr = fmt.Errorf("tcpstack leg: no SYN/ACK")
			return 0
		}
		serverSeq = last.View().TCP.Seq
		send(&packet.TCPHeader{SrcPort: port, DstPort: 80, Seq: iss + 1, Ack: serverSeq + 1, Flags: packet.FlagACK, Window: 65535}, nil)
		return serverSeq
	}

	// The connection table is a linear scan, so connections are opened in
	// small batches on a stack reset outside the clock.
	const batch = 16
	n := b.iters(4000)
	ns, _ := b.timed("tcpstack.handshake", n, reset, func() {
		for p := uint16(0); p < batch; p++ {
			handshake(2000 + p)
		}
	})
	handshakeNs := ns / batch
	b.leg("tcpstack.handshake_ns", handshakeNs, "ns", n*batch)

	const segs = 64
	data := make([]byte, 256)
	ns, _ = b.timed("tcpstack.data", n, reset, func() {
		srv := handshake(2000)
		for k := uint32(0); k < segs; k++ {
			send(&packet.TCPHeader{SrcPort: 2000, DstPort: 80, Seq: iss + 1 + k*256, Ack: srv + 1,
				Flags: packet.FlagACK | packet.FlagPSH, Window: 65535}, data)
		}
		loop.RunUntilIdle(0)
	})
	b.leg("tcpstack.ns_per_data_segment", max(0, ns-handshakeNs)/segs, "ns", n*segs)
	return legErr
}

// fastPath is the campaign's access path: fast enough that serialization
// never dominates.
var fastPath = simnet.PathSpec{LinkRate: 100_000_000}

func cleanP2P(seed uint64) simnet.Config {
	return simnet.Config{Seed: seed, Server: host.FreeBSD4(), Forward: fastPath, Reverse: fastPath, DisableCaptures: true}
}

// tcpsenderLeg times a 256 KiB Sender transfer into a host Stack over the
// two access Links of a clean point-to-point Net.
func (b *bench) tcpsenderLeg() error {
	cfg := cleanP2P(5)
	cfg.Server.TCP.ObjectSize = 1
	var n *simnet.Net
	var s *tcpsender.Sender
	setup := func() {
		n = simnet.New(cfg)
		s = tcpsender.New(n.Loop, tcpsender.Config{Bytes: 256 << 10}, n.ProbeAddr(), n.ServerAddr(), n.IDs, sim.NewRand(7, 7), nil)
		s.SetOutput(n.AttachEndpoint(s))
	}
	iters := b.iters(100)
	ns, _ := b.timed("tcpsender.transfer", iters, setup, func() {
		s.Start()
		n.Loop.RunUntil(sim.Time(0).Add(30 * time.Second))
	})
	if !s.Done() {
		return fmt.Errorf("tcpsender leg: transfer incomplete: %+v", s.Stats())
	}
	segs := float64(s.Stats().BytesAcked) / 1460
	b.leg("tcpsender.ns_per_acked_segment", ns/segs, "ns", iters*int(segs))
	return nil
}

func catalogTopology(name string, rng *sim.Rand) *simnet.TopologySpec {
	for _, tp := range campaign.Topologies() {
		if tp.Name == name {
			return tp.Build(rng)
		}
	}
	return nil
}

func catalogScenario(name string, rng *sim.Rand) *simnet.ScenarioSpec {
	for _, sc := range campaign.Scenarios() {
		if sc.Name == name {
			return sc.Build(rng)
		}
	}
	return nil
}

func (b *bench) simnetLegs() error {
	p2p := cleanP2P(1)
	multihop := cleanP2P(1)
	multihop.Topology = catalogTopology("multihop", sim.NewRand(1, 2))
	scenario := cleanP2P(1)
	scenario.Scenario = catalogScenario("seq-hole", sim.NewRand(1, 3))
	if multihop.Topology == nil || scenario.Scenario == nil {
		return fmt.Errorf("simnet leg: catalog lacks multihop or seq-hole")
	}
	n := b.iters(2000)
	for _, c := range []struct {
		name  string
		cfg   simnet.Config
		build bool
	}{{"p2p", p2p, true}, {"multihop", multihop, true}, {"scenario", scenario, false}} {
		cfg := c.cfg
		if c.build {
			ns, _ := b.timed("simnet.build", n, nil, func() { simnet.New(cfg) })
			b.leg("simnet.build_us_"+c.name, ns/1e3, "us", n)
		}
		net := simnet.New(cfg)
		ns, _ := b.timed("simnet.reset", n, nil, func() {
			cfg.Seed++
			net.Reset(cfg)
		})
		b.leg("simnet.reset_us_"+c.name, ns/1e3, "us", n)
	}
	return nil
}

// coreLegs times each technique end to end over a clean point-to-point Net
// (so sim, netem and tcpstack work is inside the figure), 64 samples a call.
func (b *bench) coreLegs() error {
	const legSamples = 64
	cfg := cleanP2P(1)
	net := simnet.New(cfg)
	prober := core.NewProber(net.Probe(), net.ServerAddr(), 2)
	reset := func() {
		cfg.Seed++
		net.Reset(cfg)
		prober.Reset(cfg.Seed)
	}
	var legErr error
	n := b.iters(200)
	for _, t := range []struct {
		name string
		per  float64
		unit string
		run  func() error
	}{
		{"core.sct_us_per_sample", legSamples, "us", func() error {
			_, err := prober.SingleConnectionTest(core.SCTOptions{Samples: legSamples, Reversed: true})
			return err
		}},
		{"core.dct_us_per_sample", legSamples, "us", func() error {
			_, err := prober.DualConnectionTest(core.DCTOptions{Samples: legSamples})
			return err
		}},
		{"core.syn_us_per_sample", legSamples, "us", func() error {
			_, err := prober.SYNTest(core.SYNOptions{Samples: legSamples})
			return err
		}},
		{"core.transfer_us_per_kb", float64(cfg.Server.TCP.Defaults().ObjectSize) / 1024, "us", func() error {
			_, err := prober.DataTransferTest(core.TransferOptions{IdleTimeout: 500 * time.Millisecond})
			return err
		}},
	} {
		run := t.run
		ns, _ := b.timed(t.name, n, reset, func() {
			if err := run(); err != nil {
				legErr = err
			}
		})
		b.leg(t.name, ns/1e3/t.per, t.unit, n)
	}
	return legErr
}

// campaignLegs times the orchestration pieces that do not depend on a
// workload's targets: the scheduler with a no-op job, the aggregator over
// synthetic results, and checkpoint save/load in the scratch directory.
func (b *bench) campaignLegs() error {
	n := b.iters(1_000_000)
	sched := campaign.NewScheduler(campaign.SchedulerConfig{Workers: b.workers})
	var legErr error
	ns, _ := b.timed("campaign.scheduler", 1, nil, func() {
		legErr = sched.RunSpans(0, n, nil,
			func(worker, index, attempt int) error { return nil },
			func(lo, hi int) error { return nil })
	})
	if legErr != nil {
		return legErr
	}
	b.leg("campaign.scheduler.ns_per_target", ns/float64(n), "ns", n)

	results := campaign.SyntheticResults(b.iters(10_000))
	var agg *campaign.Aggregator
	ns, _ = b.timed("campaign.aggregator.add", 1, nil, func() {
		agg = campaign.NewAggregator(b.workers)
		for i, r := range results {
			agg.Shard(i % b.workers).Add(r)
		}
	})
	b.leg("campaign.aggregator.ns_per_result", ns/float64(len(results)), "ns", len(results))
	ns, _ = b.timed("campaign.aggregator.summary", 1, nil, func() { agg.Summary() })
	b.leg("campaign.aggregator.summary_us", ns/1e3, "us", legRounds)

	// Save is temp file, fsync, rename, directory fsync: on a disk-backed
	// scratch directory this is the host's real fsync cost.
	path := b.scratch + "/leg.ckpt"
	ck := campaign.Checkpoint{Fingerprint: 1}
	saves := b.iters(50)
	us := make([]float64, saves)
	sp := b.spans.begin("leg/campaign.checkpoint.save", "", 0)
	for i := range us {
		ck.Done = i
		start := time.Now()
		if err := ck.Save(path); err != nil {
			return err
		}
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	b.spans.end(sp)
	b.leg("campaign.checkpoint.save_us_p50", median(us), "us", saves)
	ns, _ = b.timed("campaign.checkpoint.load", b.iters(500), nil, func() {
		if _, err := campaign.LoadCheckpoint(path); err != nil {
			legErr = err
		}
	})
	b.leg("campaign.checkpoint.load_us", ns/1e3, "us", b.iters(500))
	return legErr
}

// workloadLegs times the pieces whose cost depends on the workload's own
// records: rendering its sweep results, flushing its rendered spans,
// replaying its complete JSONL, and the cross-traffic its topologies carry.
func (b *bench) workloadLegs(w *workload) error {
	w.legs = map[string]metric{}
	leg := func(name string, v float64, unit string) {
		w.legs[name] = metric{Name: name, Value: v, Unit: unit, N: len(w.results)}
	}
	n := len(w.results)
	if n == 0 {
		return fmt.Errorf("no sweep results to render")
	}
	var buf []byte
	ns, _ := b.timed("campaign.render.json", 1, nil, func() {
		for i := range w.results {
			buf = w.results[i].AppendJSON(buf[:0])
		}
	})
	leg("campaign.render.json_ns_per_target", ns/float64(n), "ns")
	enc := campaign.NewCSVRowEncoder()
	if len(w.enum.Topologies) > 0 {
		enc.IncludeTopology()
	}
	if len(w.enum.Scenarios) > 0 {
		enc.IncludeScenario()
	}
	var legErr error
	ns, _ = b.timed("campaign.render.csv", 1, nil, func() {
		for i := range w.results {
			if buf, legErr = enc.AppendRow(buf[:0], &w.results[i]); legErr != nil {
				return
			}
		}
	})
	if legErr != nil {
		return legErr
	}
	leg("campaign.render.csv_ns_per_target", ns/float64(n), "ns")

	// Flush: pre-rendered 64-record spans through JSONLSink.EmitBatch into
	// a scratch file, to Close.
	var spans [][]byte
	var total int
	for lo := 0; lo < n; lo += 64 {
		var sb []byte
		for i := lo; i < min(lo+64, n); i++ {
			sb = append(w.results[i].AppendJSON(sb), '\n')
		}
		spans = append(spans, sb)
		total += len(sb)
	}
	var f *os.File
	open := func() {
		if f, legErr = os.Create(w.path("flush.jsonl")); legErr != nil {
			f = nil
		}
	}
	ns, _ = b.timed("campaign.sink.flush", 1, open, func() {
		if f == nil {
			return
		}
		sink := campaign.NewJSONLSink(f)
		for _, sb := range spans {
			if err := sink.EmitBatch(sb); err != nil {
				legErr = err
			}
		}
		if err := sink.Close(); err != nil {
			legErr = err
		}
	})
	if legErr != nil {
		return legErr
	}
	leg("campaign.sink.flush_mb_per_s", float64(total)/1e6/(ns/1e9), "MB/s")

	// Replay: NewEmitter with Resume over a complete prefix (the last
	// pass's verified JSONL), which loads the checkpoint, fingerprints the
	// list and parses every record back.
	if err := copyFile(w.path("replay.jsonl"), w.path("out.jsonl")); err != nil {
		return err
	}
	ck := campaign.Checkpoint{Fingerprint: w.fp, Done: len(w.targets)}
	if err := ck.Save(w.path("replay.ckpt")); err != nil {
		return err
	}
	var em *campaign.Emitter
	ns, _ = b.timed("campaign.replay", 1, nil, func() {
		em, legErr = campaign.NewEmitter(campaign.Config{
			Targets: w.targets, Samples: samples,
			OutputPath: w.path("replay.jsonl"), CheckpointPath: w.path("replay.ckpt"), Resume: true,
		})
		if legErr == nil {
			_, legErr = em.Finish(nil)
		}
	})
	if legErr != nil {
		return legErr
	}
	if got := len(em.Replayed()); got != len(w.targets) {
		return fmt.Errorf("replay leg: replayed %d of %d records", got, len(w.targets))
	}
	leg("campaign.replay.ns_per_target", ns/float64(len(w.targets)), "ns")

	// Cross-traffic segments per target: each of the workload's topologies
	// built from the catalog, one 8-sample single connection test run over
	// it, the background senders' acknowledged segments counted.
	var segs float64
	for i, name := range w.enum.Topologies {
		cfg := cleanP2P(b.opt.seed + uint64(i))
		cfg.Topology = catalogTopology(name, sim.NewRand(b.opt.seed, uint64(i)))
		net := simnet.New(cfg)
		prober := core.NewProber(net.Probe(), net.ServerAddr(), b.opt.seed)
		if _, err := prober.SingleConnectionTest(core.SCTOptions{Samples: samples, Reversed: true}); err != nil {
			return fmt.Errorf("segments leg: %s: %w", name, err)
		}
		for _, s := range net.Senders {
			segs += float64(s.Stats().BytesAcked) / 1460
		}
	}
	if k := len(w.enum.Topologies); k > 0 {
		segs /= float64(k)
	}
	leg("tcpsender.segments_per_target", segs, "count")
	return nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
