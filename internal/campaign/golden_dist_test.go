package campaign_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"reorder/internal/campaign"
	"reorder/internal/campaign/dist"
)

// The same pre-batching goldens golden_test.go pins (duplicated here
// because this file must live in the external test package — dist imports
// campaign, so the in-package tests cannot import dist). Distributed runs
// must hit them too: not merely self-consistent across worker counts, but
// byte-identical to the original per-target emit path.
const (
	distGoldenJSONLSHA = "22cc82ab230dcdacff6c2875579a19a0c9102c242660d707cee135207ca2bf2a"
	distGoldenCSVSHA   = "4296e747d9c4a70f30a4ee1763f43c81054c32af000424bf4eea8533d21e7b01"
)

// runGoldenDist runs the smallSpec campaign through a coordinator with
// `workers` loopback worker goroutines, optionally split across a
// StopAfter/resume boundary that lands mid-span, and returns the JSONL
// and CSV bytes.
func runGoldenDist(t *testing.T, workers, spanSize int, split bool) ([]byte, []byte) {
	t.Helper()
	targets, err := campaign.Enumerate(campaign.EnumSpec{
		Profiles:    []string{"freebsd4", "linux24", campaign.LBPool},
		Impairments: []string{"clean", "swap-heavy"},
		Tests:       []string{"single", "dual", "syn", "transfer"},
		Seeds:       1,
		BaseSeed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	csv := filepath.Join(dir, "out.csv")
	ckpt := filepath.Join(dir, "ckpt.json")
	phases := [][2]int{{0, 0}}
	if split {
		phases = [][2]int{{11, 0}, {0, 1}}
	}
	for _, ph := range phases {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Every worker's connection is dialled before Serve starts and
		// handed over as WorkerConfig.Conn, so whether a slow worker gets
		// its hello in before a 24-target campaign ends decides nothing: it
		// has no listener to retry against once Serve has closed it.
		werrs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			conn, err := dist.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				werrs[i] = dist.RunWorker(dist.WorkerConfig{Conn: conn, Targets: targets, Samples: 4})
			}()
		}
		_, err = dist.Serve(dist.Config{
			Campaign: campaign.Config{
				Targets:        targets,
				Samples:        4,
				OutputPath:     out,
				CSVPath:        csv,
				CheckpointPath: ckpt,
				StopAfter:      ph[0],
				Resume:         ph[1] == 1,
				Batch:          spanSize,
			},
			Listener:      ln,
			ExpectWorkers: workers,
		})
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for i, werr := range werrs {
			// A connection Serve never accepted dies with its listener. The
			// campaign finished without that worker and the bytes are the
			// contract; anything but a lost connection is still a failure.
			var op *net.OpError
			switch {
			case werr == nil:
			case errors.Is(werr, io.EOF) || errors.As(werr, &op):
				t.Logf("worker %d was never needed: %v", i, werr)
			default:
				t.Errorf("worker %d: %v", i, werr)
			}
		}
	}
	jsonl, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	csvData, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, csvData
}

// TestCampaignDistGolden extends the golden matrix to distributed
// execution: worker count × span size, plain and resumed, all pinned to
// the pre-change SHAs.
func TestCampaignDistGolden(t *testing.T) {
	shaHex := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, workers := range []int{1, 3} {
		for _, spanSize := range []int{4, 32} {
			for _, split := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/span=%d/split=%v", workers, spanSize, split)
				jsonl, csv := runGoldenDist(t, workers, spanSize, split)
				if got := shaHex(jsonl); got != distGoldenJSONLSHA {
					t.Errorf("%s: JSONL sha256 %s, want golden %s", name, got, distGoldenJSONLSHA)
				}
				if got := shaHex(csv); got != distGoldenCSVSHA {
					t.Errorf("%s: CSV sha256 %s, want golden %s", name, got, distGoldenCSVSHA)
				}
			}
		}
	}
}
