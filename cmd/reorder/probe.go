package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"reorder/internal/baseline"
	"reorder/internal/cli"
	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/simnet"
	"reorder/internal/trace"
)

// setupProbe runs one technique against one simulated server and prints
// per-sample verdicts (-v) and the summary rates.
func setupProbe(fs *flag.FlagSet) func(io.Writer) error {
	var (
		test     = fs.String("test", "single", "technique: single, dual, syn, transfer, ipid")
		samples  = fs.Int("samples", 15, "samples per measurement")
		gap      = fs.Duration("gap", 0, "inter-packet gap between sample pairs")
		fwd      = fs.Float64("fwd", 0.05, "forward path swap probability")
		rev      = fs.Float64("rev", 0.02, "reverse path swap probability")
		loss     = fs.Float64("loss", 0, "loss probability on both paths")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		reversed = fs.Bool("reversed", true, "single connection test: reversed send order")
		lb       = fs.Bool("lb", false, "place a load balancer with 4 backends in front of the server")
		trunk    = fs.Bool("trunk", false, "route the forward path over a striped 2-link trunk")
		profile  = fs.String("profile", "freebsd4", "server profile (freebsd4, linux22, linux24, openbsd3, solaris8, win2000, spec, dual-rst)")
		verbose  = fs.Bool("v", false, "print each sample")
		pcapPfx  = fs.String("pcap", "", "write ground-truth captures to <prefix>-{probe-egress,host-ingress,host-egress,probe-ingress}.pcap")
	)
	return func(stdout io.Writer) error {
		prof, ok := profileByName(*profile)
		if !ok {
			return cli.Usagef("unknown profile %q", *profile)
		}
		cfg := simnet.Config{
			Seed:    *seed,
			Server:  prof,
			Forward: simnet.PathSpec{SwapProb: *fwd, Loss: *loss},
			Reverse: simnet.PathSpec{SwapProb: *rev, Loss: *loss},
		}
		if *trunk {
			cfg.Forward.Trunk = &netem.TrunkConfig{FanOut: 2, BurstProb: 0.35, MeanBurstBytes: 2500, RateBps: 1_000_000_000}
		}
		if *lb {
			cfg.Backends = []host.Profile{prof, host.FreeBSD4(), host.Linux22(), host.Windows2000()}
		}
		n := simnet.New(cfg)
		p := core.NewProber(n.Probe(), n.ServerAddr(), *seed+1)
		dump := func() error {
			if *pcapPfx == "" {
				return nil
			}
			return dumpCaptures(stdout, *pcapPfx, n)
		}

		var res *core.Result
		var err error
		switch *test {
		case "single":
			res, err = p.SingleConnectionTest(core.SCTOptions{Samples: *samples, Gap: *gap, Reversed: *reversed})
		case "dual":
			res, err = p.DualConnectionTest(core.DCTOptions{Samples: *samples, Gap: *gap})
		case "syn":
			res, err = p.SYNTest(core.SYNOptions{Samples: *samples, Gap: *gap})
		case "transfer":
			res, err = p.DataTransferTest(core.TransferOptions{})
		case "ipid":
			rep, err := p.ValidateIPID(core.IPIDCheckOptions{Probes: 16})
			if err != nil {
				return err
			}
			if err := dump(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "IPID prevalidation of %s (%s): usable=%v score=%.2f constant=%v samples=%d\n",
				n.ServerAddr(), n.Hosts[0].IPIDPolicy(), rep.Usable(), rep.Score, rep.Constant, rep.Samples)
			return nil
		default:
			return cli.Usagef("unknown test %q", *test)
		}
		if err != nil {
			return err
		}

		if *verbose {
			for i, s := range res.Samples {
				fmt.Fprintf(stdout, "sample %2d: forward=%-9s reverse=%-9s gap=%s rtt=%s\n", i, s.Forward, s.Reverse, s.Gap, s.RTT)
			}
		}
		if err := dump(); err != nil {
			return err
		}
		f, r := res.Forward(), res.Reverse()
		fmt.Fprintf(stdout, "%s test against %s (%s profile)\n", res.Test, res.Target, prof.Name)
		fmt.Fprintf(stdout, "forward: %3d in-order, %3d reordered, %3d discarded -> rate %.4f\n",
			f.InOrder, f.Reordered, f.Discarded, f.Rate())
		fmt.Fprintf(stdout, "reverse: %3d in-order, %3d reordered, %3d discarded -> rate %.4f\n",
			r.InOrder, r.Reordered, r.Discarded, r.Rate())
		fmt.Fprintf(stdout, "mean RTT: %s, virtual time elapsed: %s\n", res.MeanRTT(), n.Loop.Now())
		return nil
	}
}

// dumpCaptures writes the four ground-truth captures as pcap files, in the
// order a packet meets the capture points.
func dumpCaptures(stdout io.Writer, prefix string, n *simnet.Net) error {
	for _, c := range []struct {
		name string
		cap  *trace.Capture
	}{{"probe-egress", n.ProbeEgress}, {"host-ingress", n.HostIngress},
		{"host-egress", n.HostEgress}, {"probe-ingress", n.ProbeIngress}} {
		path := fmt.Sprintf("%s-%s.pcap", prefix, c.name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := c.cap.WritePcap(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d packets)\n", path, c.cap.Len())
	}
	return nil
}

func profileByName(name string) (host.Profile, bool) {
	for _, p := range host.Catalog() {
		if p.Name == name {
			return p, true
		}
	}
	return host.Profile{}, false
}

// setupAnalyze is an offline, tcptrace-style reordering analyzer: it reads
// raw-IP pcaps (such as those probe -pcap writes, or any capture converted
// to LINKTYPE_RAW), groups TCP data segments by flow, and reports per-flow
// reordering statistics — the Paxson-style counters and the RFC-4737-style
// sequence metrics (ratio, max extent, n-reordering), including the
// spurious-fast-retransmit exposure at TCP's classic duplicate-ACK threshold.
func setupAnalyze(fs *flag.FlagSet) func(io.Writer) error {
	var in []string
	fs.Var((*cli.List)(&in), "in", "comma-separated raw-IP pcap captures to analyze")
	minSegs := fs.Int("min", 4, "minimum data segments for a flow to be reported")
	return func(stdout io.Writer) error {
		if len(in) == 0 {
			return cli.Usagef("reorder analyze: -in names no capture")
		}
		var failed bool
		for _, path := range in {
			if err := analyzeFile(stdout, path, *minSegs); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
				failed = true
			}
		}
		if failed {
			return cli.ErrReported
		}
		return nil
	}
}

func analyzeFile(stdout io.Writer, path string, minSegs int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cap, err := trace.ReadPcap(f)
	if err != nil {
		return err
	}
	flows := baseline.AnalyzeAllFlows(cap, minSegs)
	fmt.Fprintf(stdout, "%s: %d packets, %d data flows with >=%d segments\n", path, cap.Len(), len(flows), minSegs)
	if len(flows) == 0 {
		return nil
	}
	fmt.Fprintf(stdout, "%-44s %6s %6s %6s %7s %7s %8s %8s\n",
		"flow", "segs", "rexmt", "ooo", "rate", "exchg", "max-ext", "3-reord")
	for _, fr := range flows {
		m := fr.Metrics
		fmt.Fprintf(stdout, "%-44s %6d %6d %6d %7.4f %7d %8d %8d\n",
			fr.Flow, fr.Paxson.DataPackets, fr.Paxson.Retransmissions, fr.Paxson.OutOfOrder,
			fr.Paxson.Rate(), m.Exchanges, m.MaxExtent(), m.NReordered(3))
	}
	return nil
}
