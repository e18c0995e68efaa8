package experiments

import (
	"fmt"
	"io"

	"reorder/internal/baseline"
	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/packet"
	"reorder/internal/simnet"
)

// BaselinesConfig parameterizes E7: the prior-art methods of §II run on a
// path with heavy reordering, reproducing both Bennett et al.'s findings
// (small bursts: most see reordering; large bursts: SACK metric grows) and
// Paxson's passive statistics, plus the direction-blindness critique.
type BaselinesConfig struct {
	// SwapProb is the pathological path's forward swap probability.
	SwapProb float64
	// SmallBursts and LargeBursts are the burst counts for the 5x56B and
	// 100x512B experiments.
	SmallBursts, LargeBursts int
	// Transfers is the number of sessions for the Paxson analysis.
	Transfers int
	// Seed drives everything.
	Seed uint64
}

// DefaultBaselines mirrors Bennett's setup on a heavy-reordering path.
func DefaultBaselines() BaselinesConfig {
	return BaselinesConfig{SwapProb: 0.35, SmallBursts: 50, LargeBursts: 10, Transfers: 20, Seed: 55}
}

// BaselinesReport holds the E7 outcomes.
type BaselinesReport struct {
	// SmallBurstReordered is the fraction of 5-packet 56-byte bursts with
	// at least one reordering (Bennett: >90% on a pathological path).
	SmallBurstReordered float64
	// LargeBurstMeanSACK is the mean of the per-burst max-SACK-block
	// metric over 100-packet 512-byte bursts.
	LargeBurstMeanSACK float64
	// PaxsonSessions and PaxsonSessionsReordered give the session-level
	// statistic; PaxsonPacketRate the packet-level one.
	PaxsonSessions          int
	PaxsonSessionsReordered int
	PaxsonPacketRate        float64
}

// WriteText prints the report.
func (rep *BaselinesReport) WriteText(w io.Writer) {
	fmt.Fprintln(w, "E7 prior-art baselines on a heavy-reordering path")
	fmt.Fprintf(w, "Bennett 5x56B bursts with >=1 reordering: %.0f%% (paper's reference: >90%%)\n",
		rep.SmallBurstReordered*100)
	fmt.Fprintf(w, "Bennett 100x512B bursts mean max SACK blocks: %.1f\n", rep.LargeBurstMeanSACK)
	fmt.Fprintf(w, "Paxson sessions with >=1 reordering: %d/%d; packet rate %.4f\n",
		rep.PaxsonSessionsReordered, rep.PaxsonSessions, rep.PaxsonPacketRate)
}

// RunBaselines executes E7.
func RunBaselines(cfg BaselinesConfig) (*BaselinesReport, error) {
	rep := &BaselinesReport{}

	// Bennett small bursts on the pathological path.
	n := simnet.New(simnet.Config{
		Seed: cfg.Seed, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: cfg.SwapProb},
		Reverse: simnet.PathSpec{SwapProb: cfg.SwapProb / 3},
	})
	small, err := baseline.BennettTest(n.Probe(), n.ServerAddr(), baseline.BennettOptions{
		Bursts: cfg.SmallBursts, BurstSize: 5, PayloadSize: 28,
	})
	if err != nil {
		return nil, err
	}
	rep.SmallBurstReordered = small.FractionReordered()

	// Bennett large bursts (100 x 512B) on the same scenario.
	large, err := baseline.BennettTest(n.Probe(), n.ServerAddr(), baseline.BennettOptions{
		Bursts: cfg.LargeBursts, BurstSize: 100, PayloadSize: 512 - 28,
	})
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, b := range large.Bursts {
		total += float64(b.SACKBlocks)
	}
	if len(large.Bursts) > 0 {
		rep.LargeBurstMeanSACK = total / float64(len(large.Bursts))
	}

	// Paxson passive analysis over repeated transfers with moderate
	// reverse-path reordering (his measurements were of TCP data flows).
	var packets, ooo int
	for i := 0; i < cfg.Transfers; i++ {
		prof := host.FreeBSD4()
		prof.TCP.ObjectSize = 16 << 10
		tn := simnet.New(simnet.Config{
			Seed: cfg.Seed + 100 + uint64(i), Server: prof,
			Reverse: simnet.PathSpec{SwapProb: cfg.SwapProb / 3},
		})
		prober := core.NewProber(tn.Probe(), tn.ServerAddr(), cfg.Seed+uint64(i))
		if _, err := prober.DataTransferTest(core.TransferOptions{}); err != nil {
			continue
		}
		flow := packet.FlowKey{
			Src: tn.ServerAddr(), Dst: tn.ProbeAddr(),
			SrcPort: 80, DstPort: 40000, Proto: packet.ProtoTCP,
		}
		pr := baseline.AnalyzeCapture(tn.ProbeIngress, flow)
		rep.PaxsonSessions++
		if pr.AnyReordering() {
			rep.PaxsonSessionsReordered++
		}
		packets += pr.DataPackets
		ooo += pr.OutOfOrder
	}
	if packets > 0 {
		rep.PaxsonPacketRate = float64(ooo) / float64(packets)
	}
	return rep, nil
}
