package simnet

import (
	"bytes"
	"testing"
	"time"

	"reorder/internal/host"
	"reorder/internal/packet"
)

// synProbe hand-rolls a SYN through the scenario and returns the reply
// bytes, the frame ID assigned, and the virtual receive time — enough
// state to detect any divergence between a fresh and a reset scenario.
func synProbe(t *testing.T, n *Net) ([]byte, uint64, time.Duration) {
	t.Helper()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
		&packet.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Window: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Probe()
	id := p.Send(raw)
	data, _, ok := p.Recv(time.Second)
	if !ok {
		t.Fatal("no reply within 1s of virtual time")
	}
	return append([]byte(nil), data...), id, p.Now().Duration()
}

// TestResetMatchesFresh is the scenario-arena hermeticity contract at the
// simnet layer: a Net reset to a config is observably identical to a Net
// freshly built from it — same clock, same frame IDs, same reply bytes —
// even when the reset crosses configs (different impairments, different
// host profiles, load-balanced pools) and the previous run stopped with
// events still in flight.
func TestResetMatchesFresh(t *testing.T) {
	configs := []Config{
		{Seed: 1, Server: host.FreeBSD4()},
		{Seed: 2, Server: host.Linux24(), Forward: PathSpec{SwapProb: 0.4}},
		{Seed: 3, Backends: []host.Profile{host.FreeBSD4(), host.Linux22()}},
		{Seed: 4, Server: host.SpecStack(), Reverse: PathSpec{Jitter: 2 * time.Millisecond}},
		{Seed: 1, Server: host.FreeBSD4()}, // revisit the first config
	}
	reused := New(configs[0])
	for i, cfg := range configs {
		if i > 0 {
			// Leave traffic in flight before the reset: send without
			// draining, so the loop still holds scheduled events.
			raw, err := packet.AppendTCP(nil,
				&packet.IPv4Header{Src: reused.ProbeAddr(), Dst: reused.ServerAddr()},
				&packet.TCPHeader{SrcPort: 6000, DstPort: 80, Seq: 1, Flags: packet.FlagSYN, Window: 512}, nil)
			if err != nil {
				t.Fatal(err)
			}
			reused.Probe().Send(raw)
			reused.Reset(cfg)
		}
		fresh := New(cfg)
		fd, fid, ft := synProbe(t, fresh)
		rd, rid, rt := synProbe(t, reused)
		if !bytes.Equal(fd, rd) {
			t.Fatalf("config %d: reset scenario replied %x, fresh %x", i, rd, fd)
		}
		if fid != rid {
			t.Fatalf("config %d: frame IDs diverged: reset %d, fresh %d", i, rid, fid)
		}
		if ft != rt {
			t.Fatalf("config %d: receive times diverged: reset %v, fresh %v", i, rt, ft)
		}
	}
}

// TestDisableCaptures checks that skipping capture taps changes nothing
// about the traffic — replies, IDs and timing are identical — while the
// captures stay empty.
func TestDisableCaptures(t *testing.T) {
	cfg := Config{Seed: 7, Server: host.FreeBSD4(), Forward: PathSpec{SwapProb: 0.3}}
	on := New(cfg)
	cfg.DisableCaptures = true
	off := New(cfg)

	d1, id1, t1 := synProbe(t, on)
	d2, id2, t2 := synProbe(t, off)
	if !bytes.Equal(d1, d2) || id1 != id2 || t1 != t2 {
		t.Fatal("disabling captures changed observable traffic")
	}
	if on.ProbeEgress.Len() == 0 || on.HostIngress.Len() == 0 {
		t.Fatal("captures empty with captures enabled")
	}
	if off.ProbeEgress.Len() != 0 || off.HostIngress.Len() != 0 ||
		off.HostEgress.Len() != 0 || off.ProbeIngress.Len() != 0 {
		t.Fatal("captures recorded frames while disabled")
	}
}
