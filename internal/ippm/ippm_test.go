package ippm

import (
	"net/netip"
	"testing"
	"time"

	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/simnet"
)

func session(t *testing.T, sc simnet.Config, cfg SessionConfig) *Report {
	t.Helper()
	n := simnet.New(sc)
	recv := Attach(n.Hosts[0], n.Loop)
	rep, err := RunSession(n.Probe(), n.ServerAddr(), recv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCleanSession(t *testing.T) {
	rep := session(t, simnet.Config{Seed: 1, Server: host.FreeBSD4()}, SessionConfig{Count: 50})
	if rep.Received != 50 {
		t.Fatalf("received %d/50", rep.Received)
	}
	if rep.Metrics.Reordered != 0 || rep.Metrics.Exchanges != 0 {
		t.Fatalf("clean path reordered: %v", rep.Metrics)
	}
	// One-way delay: 5ms propagation plus some serialization.
	if rep.Delay.Mean < 0.005 || rep.Delay.Mean > 0.007 {
		t.Fatalf("mean one-way delay = %v s", rep.Delay.Mean)
	}
	if rep.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestSessionSeesReordering(t *testing.T) {
	rep := session(t, simnet.Config{
		Seed: 2, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: 0.3},
	}, SessionConfig{Count: 200})
	if rep.Metrics.Reordered == 0 {
		t.Fatal("cooperative receiver missed the reordering")
	}
	rate := rep.Metrics.ExchangeRatio()
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("exchange ratio = %.3f, want ≈0.3", rate)
	}
}

func TestSessionCountsLoss(t *testing.T) {
	rep := session(t, simnet.Config{
		Seed: 3, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{Loss: 0.2},
	}, SessionConfig{Count: 200})
	if rep.Received >= 200 || rep.Received == 0 {
		t.Fatalf("received %d/200 under 20%% loss", rep.Received)
	}
	if rep.Metrics.Reordered != 0 {
		t.Fatal("loss misread as reordering")
	}
}

func TestSessionGapParameter(t *testing.T) {
	// The same gap-dependence the DCT sweep shows, measured cooperatively.
	trunkPath := func(gap time.Duration) float64 {
		rep := session(t, simnet.Config{
			Seed: 4, Server: host.FreeBSD4(),
			Forward: simnet.PathSpec{
				LinkRate: 1_000_000_000,
				Trunk: &netem.TrunkConfig{
					FanOut: 2, RateBps: 1_000_000_000,
					BurstProb: 0.2, MeanBurstBytes: 2500,
				},
			},
		}, SessionConfig{Count: 400, Gap: gap})
		return rep.Metrics.ExchangeRatio()
	}
	r0 := trunkPath(0)
	r300 := trunkPath(300 * time.Microsecond)
	if r0 < 0.05 {
		t.Fatalf("back-to-back rate = %.4f", r0)
	}
	if r300 > r0/3 {
		t.Fatalf("no decay: r0=%.4f r300=%.4f", r0, r300)
	}
}

func TestReceiverIgnoresGarbage(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 5, Server: host.FreeBSD4()})
	recv := Attach(n.Hosts[0], n.Loop)

	mk := func(payload []byte) *packet.Packet {
		raw, err := packet.EncodeUDP(&packet.IPv4Header{
			Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			Dst: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
		}, &packet.UDPHeader{SrcPort: 1, DstPort: port}, payload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := packet.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	recv.Handle(mk([]byte{1, 2, 3}))                                        // too short
	recv.Handle(mk([]byte{0xde, 0xad, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})) // wrong magic
	recv.Handle(mk([]byte{0x19, 0x90, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0})) // valid
	recv.Handle(mk([]byte{0x19, 0x90, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0})) // duplicate seq 7
	if len(recv.arrivals) != 1 || recv.arrivals[0] != 7 {
		t.Fatalf("arrivals = %v, want [7]", recv.arrivals)
	}
}

func TestUnregisteredPortDropsSilently(t *testing.T) {
	// Without the cooperative receiver deployed, the session measures
	// nothing — the deployment burden the paper's techniques avoid.
	n := simnet.New(simnet.Config{Seed: 6, Server: host.FreeBSD4()})
	recv := NewReceiver(n.Loop) // NOT attached to the host
	rep, err := RunSession(n.Probe(), n.ServerAddr(), recv, SessionConfig{Count: 10, Drain: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Received != 0 {
		t.Fatalf("received %d without a deployed receiver", rep.Received)
	}
}
