package simnet

import (
	"reflect"
	"testing"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/netem"
)

// runDiff probes the scenario twice — zero-copy views (the default) and
// netem.DebugForceMaterialize (every frame eagerly encoded and re-decoded)
// — and requires identical results. probe runs one measurement against a
// fresh Net built from cfg.
func runDiff(t *testing.T, name string, cfg Config, probe func(*core.Prober) (*core.Result, error)) {
	t.Helper()
	run := func(force bool) *core.Result {
		t.Helper()
		prev := netem.DebugForceMaterialize
		netem.DebugForceMaterialize = force
		defer func() { netem.DebugForceMaterialize = prev }()
		n := New(cfg)
		p := core.NewProber(n.Probe(), n.ServerAddr(), 4242)
		res, err := probe(p)
		if err != nil {
			t.Fatalf("%s (force=%v): %v", name, force, err)
		}
		return res
	}
	view := run(false)
	wire := run(true)
	if !reflect.DeepEqual(view, wire) {
		t.Errorf("%s: result differs between frame-view and force-materialize runs:\nview: %+v\nwire: %+v", name, view, wire)
	}
}

// TestViewDifferentialFragmentPath covers the mid-path materialization the
// campaign catalog does not reach: a small-MTU reverse hop fragments the
// server's data segments (the server runs without PMTUD so its packets
// carry no DF), the fragments ride an adjacent-swap hop, and the probe
// reassembles. View-built frames must materialize at the fragmenter and
// produce exactly the measurement the all-bytes path does.
func TestViewDifferentialFragmentPath(t *testing.T) {
	server := host.FreeBSD4()
	server.TCP.DisablePMTUD = true
	server.TCP.ObjectSize = 4096
	cfg := Config{
		Seed:    7,
		Server:  server,
		Forward: PathSpec{},
		Reverse: PathSpec{MTU: 128, SwapProb: 0.25},
	}
	runDiff(t, "fragment", cfg, func(p *core.Prober) (*core.Result, error) {
		return p.DataTransferTest(core.TransferOptions{IdleTimeout: 500 * time.Millisecond})
	})
}

// TestViewDifferentialCorruptPath covers the byte-mutating element: a
// Corrupter flips bits in flight on both directions, which forces
// materialization plus a copy, and the damaged datagrams must be dropped at
// the receivers' checksum validation exactly as the wire path drops them.
func TestViewDifferentialCorruptPath(t *testing.T) {
	cfg := Config{
		Seed:    11,
		Server:  host.Linux22(),
		Forward: PathSpec{Corrupt: 0.15},
		Reverse: PathSpec{Corrupt: 0.15, SwapProb: 0.1},
	}
	runDiff(t, "corrupt", cfg, func(p *core.Prober) (*core.Result, error) {
		return p.SingleConnectionTest(core.SCTOptions{Samples: 6, Reversed: true})
	})
	// The corrupting hops must actually have fired for the comparison to
	// mean anything.
	n := New(cfg)
	pr := core.NewProber(n.Probe(), n.ServerAddr(), 4242)
	if _, err := pr.SingleConnectionTest(core.SCTOptions{Samples: 6, Reversed: true}); err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, c := range n.pool.corrupters.used {
		if c.el.Stats().Swapped > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("corrupter never damaged a frame; the differential comparison is vacuous")
	}
}
