package baseline

import (
	"bytes"
	"testing"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/simnet"
	"reorder/internal/trace"
)

// FuzzReadPcap holds the offline analysis `reorder analyze -in` runs on
// arbitrary files to its contract: ReadPcap refuses the input or returns a
// capture, and AnalyzeAllFlows and the figures the command prints from
// each flow report come back, without a panic or a hang, at every segment
// threshold.
func FuzzReadPcap(f *testing.F) {
	// The seed is one short transfer through a reordering reverse path. It
	// stays under 2 KB: the fuzzer minimises a seed one byte per run, and a
	// large one would spend a short fuzzing budget doing only that.
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 600
	n := simnet.New(simnet.Config{Seed: 35, Server: prof, Reverse: simnet.PathSpec{SwapProb: 0.3}})
	p := core.NewProber(n.Probe(), n.ServerAddr(), 36)
	if _, err := p.DataTransferTest(core.TransferOptions{IdleTimeout: 100 * time.Millisecond}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.ProbeIngress.WritePcap(&buf); err != nil {
		f.Fatal(err)
	}
	if buf.Len() >= 2048 {
		f.Fatalf("seed capture is %d bytes, want under 2 KB", buf.Len())
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:24]) // a header and no records

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := trace.ReadPcap(bytes.NewReader(data))
		if err != nil {
			if c != nil {
				t.Fatalf("ReadPcap returned a capture with error %v", err)
			}
			return
		}
		for _, minSegments := range []int{0, 1, 4} {
			for _, fr := range AnalyzeAllFlows(c, minSegments) {
				_ = fr.Flow.String()
				_ = fr.Paxson.Rate()
				_, _ = fr.Metrics.MaxExtent(), fr.Metrics.NReordered(3)
			}
		}
	})
}
