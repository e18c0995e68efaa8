package reorder_test

import (
	"errors"
	"fmt"
	"time"

	"reorder"
)

// The single connection test against a path that swaps 10% of adjacent
// packet pairs on the way to the server. Everything is seeded, so the
// output is exact.
func Example_singleConnectionTest() {
	net := reorder.NewSimNet(reorder.SimConfig{
		Seed:    2002,
		Server:  reorder.FreeBSD4(),
		Forward: reorder.PathSpec{SwapProb: 0.10},
	})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 1)
	res, err := p.SingleConnectionTest(reorder.SCTOptions{Samples: 100, Reversed: true})
	if err != nil {
		panic(err)
	}
	f := res.Forward()
	fmt.Printf("forward: %d reordered of %d valid\n", f.Reordered, f.Valid())
	// Output:
	// forward: 10 reordered of 100 valid
}

// IPID prevalidation rules out a host whose stack randomizes the
// identification field, exactly as §III-C prescribes.
func Example_ipidPrevalidation() {
	net := reorder.NewSimNet(reorder.SimConfig{Seed: 7, Server: reorder.OpenBSD3()})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 2)
	rep, err := p.ValidateIPID(reorder.IPIDCheckOptions{Probes: 16})
	if err != nil {
		panic(err)
	}
	fmt.Printf("usable for the dual connection test: %v\n", rep.Usable())
	// Output:
	// usable for the dual connection test: false
}

// Sweeping the inter-packet gap over a striped trunk produces the §IV-C
// time-domain distribution; DecayGap answers "how much pacing makes the
// reordering irrelevant".
func Example_gapSweep() {
	net := reorder.NewSimNet(reorder.SimConfig{
		Seed:   11,
		Server: reorder.FreeBSD4(),
		Forward: reorder.PathSpec{
			LinkRate: 1_000_000_000,
			Trunk:    &reorder.TrunkConfig{FanOut: 2, RateBps: 1_000_000_000, BurstProb: 0.3, MeanBurstBytes: 2500},
		},
	})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 12)
	dist, err := p.GapSweep(reorder.GapSweepOptions{
		Gaps:          []time.Duration{0, 100 * time.Microsecond, 300 * time.Microsecond},
		SamplesPerGap: 500,
	})
	if err != nil {
		panic(err)
	}
	gap, _ := dist.DecayGap(0.01)
	fmt.Printf("back-to-back rate > gap-300us rate: %v\n", dist.ForwardAt(0) > dist.ForwardAt(300*time.Microsecond))
	fmt.Printf("pacing that suppresses reordering below 1%%: %v\n", gap)
	// Output:
	// back-to-back rate > gap-300us rate: true
	// pacing that suppresses reordering below 1%: 100µs
}

// All four techniques against the same path, the cross-check of §IV-B
// where the paper validates the tests against one another in lieu of
// Internet ground truth. The data transfer test cannot see the forward
// path at all.
func Example_compareTests() {
	net := reorder.NewSimNet(reorder.SimConfig{
		Seed:    21,
		Server:  reorder.FreeBSD4(),
		Forward: reorder.PathSpec{SwapProb: 0.10},
		Reverse: reorder.PathSpec{SwapProb: 0.04},
	})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 22)
	row := func(name string, res *reorder.Result, err error) {
		if err != nil {
			panic(err)
		}
		rate := func(valid int, r float64) string {
			if valid == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.1f%%", r*100)
		}
		f, r := res.Forward(), res.Reverse()
		fmt.Printf("%-8s %6s %6s\n", name, rate(f.Valid(), f.Rate()), rate(r.Valid(), r.Rate()))
	}
	fmt.Printf("%-8s %6s %6s\n", "test", "fwd", "rev")
	res, err := p.SingleConnectionTest(reorder.SCTOptions{Samples: 300, Reversed: true})
	row("single", res, err)
	res, err = p.DualConnectionTest(reorder.DCTOptions{Samples: 300})
	row("dual", res, err)
	res, err = p.SYNTest(reorder.SYNOptions{Samples: 300})
	row("syn", res, err)
	res, err = p.DataTransferTest(reorder.TransferOptions{})
	row("transfer", res, err)
	// Output:
	// test        fwd    rev
	// single    11.0%   3.0%
	// dual       8.3%   2.7%
	// syn        9.0%   3.3%
	// transfer    n/a   4.3%
}

// Against a load-balanced site (Fig 3 and Fig 4) the dual connection
// test's shared-IPID assumption breaks and prevalidation refuses the host,
// while the SYN test, whose two packets share a flow key, measures the same
// path.
func Example_loadBalancer() {
	net := reorder.NewSimNet(reorder.SimConfig{
		Seed: 7,
		// One published address, four backends behind a per-flow balancer,
		// each with its own IPID counter.
		Backends: []reorder.HostProfile{
			reorder.FreeBSD4(), reorder.Linux22(), reorder.Windows2000(), reorder.FreeBSD4(),
		},
		Forward: reorder.PathSpec{SwapProb: 0.08},
	})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 8)
	_, err := p.DualConnectionTest(reorder.DCTOptions{Samples: 15})
	fmt.Printf("dual connection test refused: %v\n", errors.Is(err, reorder.ErrIPIDUnusable))
	res, err := p.SYNTest(reorder.SYNOptions{Samples: 100})
	if err != nil {
		panic(err)
	}
	f := res.Forward()
	fmt.Printf("syn test: forward %.1f%% over %d valid samples\n", f.Rate()*100, f.Valid())
	// Output:
	// dual connection test refused: true
	// syn test: forward 8.0% over 100 valid samples
}

// Layer-2 retransmission on a wireless hop recovers corrupted frames ~2ms
// late while later frames pass, producing deep reordering rather than the
// adjacent exchanges of queue imbalance. The burst test recovers each
// train's arrival order from IPIDs, and the sequence metrics count the
// events a TCP sender's fast retransmit would misread as loss.
func Example_wireless() {
	net := reorder.NewSimNet(reorder.SimConfig{
		Seed:   3,
		Server: reorder.FreeBSD4(),
		Forward: reorder.PathSpec{
			LinkRate: 1_000_000_000,
			ARQ:      &reorder.ARQConfig{FrameErrorRate: 0.15, RetransmitDelay: 2 * time.Millisecond},
		},
	})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 4)
	res, err := p.BurstTest(reorder.BurstOptions{BurstSize: 8, Bursts: 50, Gap: 100 * time.Microsecond})
	if err != nil {
		panic(err)
	}
	f := res.ForwardAggregate()
	fmt.Printf("received %d of %d, reordered %d, max extent %d\n", f.Received, f.Sent, f.Reordered, f.MaxExtent())
	fmt.Printf("spurious fast retransmits at dupthresh 3: %d\n", f.SpuriousFastRetransmits(3))
	// Output:
	// received 400 of 400, reordered 51, max extent 6
	// spurious fast retransmits at dupthresh 3: 37
}
