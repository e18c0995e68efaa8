package core_test

import (
	"errors"
	"reflect"
	"testing"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/ipid"
	"reorder/internal/metrics"
	"reorder/internal/sim"
	"reorder/internal/simnet"
)

// technique is one of the four tests in both its forms.
type technique struct {
	name  string
	fresh func(*core.Prober) (*core.Result, error)
	into  func(*core.Prober, *core.Result) error
}

var techniques = []technique{
	{"single",
		func(p *core.Prober) (*core.Result, error) {
			return p.SingleConnectionTest(core.SCTOptions{Samples: 6, Reversed: true})
		},
		func(p *core.Prober, res *core.Result) error {
			return p.SingleConnectionTestInto(res, core.SCTOptions{Samples: 6, Reversed: true})
		}},
	{"dual",
		func(p *core.Prober) (*core.Result, error) { return p.DualConnectionTest(core.DCTOptions{Samples: 6}) },
		func(p *core.Prober, res *core.Result) error {
			return p.DualConnectionTestInto(res, core.DCTOptions{Samples: 6})
		}},
	{"syn",
		func(p *core.Prober) (*core.Result, error) { return p.SYNTest(core.SYNOptions{Samples: 6}) },
		func(p *core.Prober, res *core.Result) error { return p.SYNTestInto(res, core.SYNOptions{Samples: 6}) }},
	{"transfer",
		func(p *core.Prober) (*core.Result, error) { return p.DataTransferTest(core.TransferOptions{}) },
		func(p *core.Prober, res *core.Result) error {
			return p.DataTransferTestInto(res, core.TransferOptions{})
		}},
}

// sameElems is reflect.DeepEqual for result slices, with empty equal to nil:
// reused storage keeps its (emptied) array where fresh storage has none.
func sameElems[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestIntoMatchesFresh holds reuse to fresh construction: one prober, one
// scenario and one set of result storage carried across seeds must measure
// exactly what a fresh scenario, a fresh prober and the allocating form
// measure — samples, arrival sequence, sequence metrics and error — on a
// path that reorders and on one that loses. Every seed is probed twice, a
// long object and then a short one: the server picks the same sequence
// numbers both times, so a sample, an arrival or a retransmission-filter
// entry left over from the long transfer would show in the short one.
func TestIntoMatchesFresh(t *testing.T) {
	const seeds = 200
	paths := map[string]simnet.PathSpec{
		"swap-heavy": {LinkRate: 100_000_000, SwapProb: 0.15},
		"lossy":      {LinkRate: 100_000_000, Loss: 0.06},
	}
	for pathName, path := range paths {
		for _, tc := range techniques {
			var (
				net    *simnet.Net
				prober *core.Prober
				res    core.Result
				rep    metrics.Report
				errs   int
			)
			rng := sim.NewRand(20, uint64(len(pathName)+len(tc.name)))
			var netSeed, seed uint64
			for i := 0; i < 2*seeds; i++ {
				objectSize := 3 * 256
				if i%2 == 0 {
					netSeed, seed, objectSize = rng.Uint64(), rng.Uint64(), 40*256
				}
				cfg := simnet.Config{Seed: netSeed, Server: host.FreeBSD4(), Forward: path, Reverse: path}
				cfg.Server.TCP.ObjectSize = objectSize

				freshNet := simnet.New(cfg)
				want, wantErr := tc.fresh(core.NewProber(freshNet.Probe(), freshNet.ServerAddr(), seed))

				if net == nil {
					net = simnet.New(cfg)
					prober = core.NewProber(net.Probe(), net.ServerAddr(), seed)
				} else {
					net.Reset(cfg)
					prober.Reset(seed)
				}
				gotErr := tc.into(prober, &res)

				if !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%s/%s seed %d: reused prober returns %v, fresh %v", pathName, tc.name, i, gotErr, wantErr)
				}
				if wantErr != nil {
					errs++
					if len(res.Samples) != 0 || len(res.Arrivals) != 0 {
						t.Fatalf("%s/%s seed %d: errored probe left %d samples, %d arrivals in its result",
							pathName, tc.name, i, len(res.Samples), len(res.Arrivals))
					}
					continue
				}
				if res.Test != want.Test || res.Target != want.Target {
					t.Fatalf("%s/%s seed %d: result is %s against %v, want %s against %v",
						pathName, tc.name, i, res.Test, res.Target, want.Test, want.Target)
				}
				if !sameElems(res.Samples, want.Samples) {
					t.Fatalf("%s/%s seed %d: samples differ\nreused: %+v\nfresh:  %+v", pathName, tc.name, i, res.Samples, want.Samples)
				}
				if !sameElems(res.Arrivals, want.Arrivals) {
					t.Fatalf("%s/%s seed %d: arrivals differ\nreused: %v\nfresh:  %v", pathName, tc.name, i, res.Arrivals, want.Arrivals)
				}
				if got, want := res.SequenceMetricsInto(&rep), want.SequenceMetrics(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s seed %d: sequence metrics differ\nreused: %+v\nfresh:  %+v", pathName, tc.name, i, got, want)
				}
			}
			if errs == 2*seeds {
				t.Fatalf("%s/%s: every probe errored", pathName, tc.name)
			}
		}
	}
}

// TestWrappersReturnCallerOwnedResults: what an allocating form returns
// outlives the next probe through the same prober — two consecutive results
// share no storage, and producing the second leaves the first as it was.
func TestWrappersReturnCallerOwnedResults(t *testing.T) {
	cfg := simnet.Config{Seed: 31, Server: host.FreeBSD4(), Forward: simnet.PathSpec{SwapProb: 0.3}, Reverse: simnet.PathSpec{SwapProb: 0.3}}
	for _, tc := range techniques {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := newProber(cfg)
			r1, err := tc.fresh(p)
			if err != nil {
				t.Fatal(err)
			}
			keep := core.Result{Test: r1.Test, Target: r1.Target,
				Samples: append([]core.Sample(nil), r1.Samples...), Arrivals: append([]int(nil), r1.Arrivals...)}
			m1 := r1.SequenceMetrics()
			r2, err := tc.fresh(p)
			if err != nil {
				t.Fatal(err)
			}
			if r1 == r2 || &r1.Samples[0] == &r2.Samples[0] {
				t.Fatal("consecutive results alias")
			}
			if len(r1.Arrivals) > 0 && &r1.Arrivals[0] == &r2.Arrivals[0] {
				t.Fatal("consecutive arrival sequences alias")
			}
			if !reflect.DeepEqual(r1.Samples, keep.Samples) || !sameElems(r1.Arrivals, keep.Arrivals) {
				t.Fatal("the second probe rewrote the first result")
			}
			if m1 != nil {
				before := *m1
				before.Extents = append([]int(nil), m1.Extents...)
				m2 := r2.SequenceMetrics()
				if m1 == m2 || &m1.Extents[0] == &m2.Extents[0] || !reflect.DeepEqual(*m1, before) {
					t.Fatal("consecutive sequence-metric reports alias")
				}
			}
		})
	}
	t.Run("validate-ipid", func(t *testing.T) {
		p, _ := newProber(cfg)
		r1, err := p.ValidateIPID(core.IPIDCheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		before := *r1
		r2, err := p.ValidateIPID(core.IPIDCheckOptions{Probes: 6})
		if err != nil {
			t.Fatal(err)
		}
		if r1 == r2 || *r1 != before || r2.Samples == r1.Samples {
			t.Fatalf("consecutive IPID reports alias: %+v then %+v", before, *r2)
		}
		// The dual test's own prevalidation must not reach it either.
		if _, err := p.DualConnectionTest(core.DCTOptions{Samples: 2}); err != nil || *r1 != before {
			t.Fatalf("dual test rewrote a returned IPID report: %v", err)
		}
		var _ *ipid.Report = r1
	})
}

// TestHandshakeErrorCost pins what a probe that fails its handshake costs a
// warmed prober: the error and the message read from it, two allocations —
// the budget the campaign's probe matrix gives an errored cell — and the
// message and identity the error has always had.
func TestHandshakeErrorCost(t *testing.T) {
	closed := host.FreeBSD4()
	closed.Ports = nil
	cfg := simnet.Config{Seed: 1, Server: closed, DisableCaptures: true}
	p, n := newProber(cfg)
	var res core.Result
	var msg string
	var err error
	probe := func() {
		n.Reset(cfg)
		p.Reset(2)
		if err = p.SingleConnectionTestInto(&res, core.SCTOptions{Samples: 4}); err != nil {
			msg = err.Error()
		}
	}
	probe()
	if allocs := testing.AllocsPerRun(10, probe); allocs > 2 {
		t.Errorf("a failed handshake allocates %.0f objects, want at most 2", allocs)
	}
	if !errors.Is(err, core.ErrHandshake) || msg != "core: handshake with target failed: 10.0.1.1 port 80" {
		t.Errorf("handshake failure reads %q (%v)", msg, err)
	}
}
