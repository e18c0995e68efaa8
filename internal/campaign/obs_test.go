package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reorder/internal/obs"
)

// TestProbeAllocBudgetWithObserver re-pins the steady-state allocation
// matrix with telemetry attached: the full instrumented job path — attempt
// count, wall timing, probe, latency observation, terminal count, stat
// harvest — must allocate as little as the bare probe in every cell,
// because every instrument is an atomic add into a preallocated shard.
func TestProbeAllocBudgetWithObserver(t *testing.T) {
	w := obs.NewCampaign(1).Worker(0)
	newArena := func() *ProbeArena {
		arena := NewProbeArena()
		arena.SetObserver(w)
		return arena
	}
	checkProbeAllocMatrix(t, newArena, func(a *ProbeArena, res *TargetResult, tg Target) {
		w.Attempts.Inc()
		start := time.Now()
		a.ProbeTargetInto(res, tg, 8, 0)
		w.ProbeNanos.Observe(time.Since(start).Nanoseconds())
		w.Targets.Inc()
	})
	if w.SimEvents.Load() == 0 || w.FramesBorn.Load() == 0 {
		t.Fatal("observer harvested no simulator statistics")
	}
}

// TestTelemetryDoesNotChangeOutput is the golden identity guard: a campaign
// with a registry and a run trace attached must produce JSONL, CSV,
// checkpoint and summary bytes identical to one with telemetry disabled —
// and the registry's final counts must reconcile exactly with the summary
// and the bytes on disk.
func TestTelemetryDoesNotChangeOutput(t *testing.T) {
	type runOut struct {
		jsonl, csv, ckpt []byte
		summary          string
	}
	doRun := func(mutate func(*Config)) runOut {
		dir := t.TempDir()
		csvPath := filepath.Join(dir, "out.csv")
		ckptPath := filepath.Join(dir, "ckpt.json")
		sum, jsonl := runCampaign(t, dir, 4, func(c *Config) {
			c.CSVPath = csvPath
			c.CheckpointPath = ckptPath
			c.CheckpointEvery = 5
			if mutate != nil {
				mutate(c)
			}
		})
		csv, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := os.ReadFile(ckptPath)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		sum.WriteText(&text)
		return runOut{jsonl: jsonl, csv: csv, ckpt: ckpt, summary: text.String()}
	}

	plain := doRun(nil)

	reg := obs.NewCampaign(4)
	var traceBuf bytes.Buffer
	trace := obs.NewTrace(&traceBuf)
	instrumented := doRun(func(c *Config) {
		c.Obs = reg
		c.Trace = trace
	})
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plain.jsonl, instrumented.jsonl) {
		t.Fatal("telemetry changed JSONL output")
	}
	if !bytes.Equal(plain.csv, instrumented.csv) {
		t.Fatal("telemetry changed CSV output")
	}
	if !bytes.Equal(plain.ckpt, instrumented.ckpt) {
		t.Fatal("telemetry changed the checkpoint")
	}
	if plain.summary != instrumented.summary {
		t.Fatalf("telemetry changed the summary:\nplain:\n%s\ninstrumented:\n%s", plain.summary, instrumented.summary)
	}

	// Reconciliation: registry totals against summary and bytes on disk.
	s := reg.Snapshot()
	targets := strings.Count(string(plain.jsonl), "\n")
	if got := s.Workers.Targets; got != uint64(targets) {
		t.Fatalf("worker targets = %d, want %d", got, targets)
	}
	if got := int(s.Done); got != targets {
		t.Fatalf("progress done = %d, want %d", got, targets)
	}
	if got := s.Sinks.JSONLBytes; got != uint64(len(plain.jsonl)) {
		t.Fatalf("sink jsonl bytes = %d, file has %d", got, len(plain.jsonl))
	}
	if got := s.Workers.RenderedJSON; got != s.Sinks.JSONLBytes {
		t.Fatalf("rendered json bytes %d != sunk %d", got, s.Sinks.JSONLBytes)
	}
	if s.Workers.RenderedCSV != s.Sinks.CSVBytes {
		t.Fatalf("rendered csv bytes %d != sunk %d", s.Workers.RenderedCSV, s.Sinks.CSVBytes)
	}
	if s.Workers.Attempts < s.Workers.Targets {
		t.Fatalf("attempts %d < targets %d", s.Workers.Attempts, s.Workers.Targets)
	}
	if s.ProbeLatency.Count != s.Workers.Attempts {
		t.Fatalf("probe latency count %d != attempts %d", s.ProbeLatency.Count, s.Workers.Attempts)
	}
	if s.Workers.SimEvents == 0 || s.Workers.FramesBorn == 0 || s.Workers.SimNanos == 0 {
		t.Fatalf("simulator telemetry empty: %+v", s.Workers)
	}
	if s.Workers.ArenaBuilds == 0 || s.Workers.ArenaBuilds > 4 {
		t.Fatalf("arena builds = %d, want 1..workers (a worker builds lazily on its first span)", s.Workers.ArenaBuilds)
	}
	if want := uint64(targets) - s.Workers.ArenaBuilds + s.Scheduler.Retries; s.Workers.ArenaResets != want {
		t.Fatalf("arena resets = %d, want %d", s.Workers.ArenaResets, want)
	}
	if s.Sinks.Checkpoints == 0 {
		t.Fatal("no checkpoints counted")
	}
	if s.Scheduler.SpanClaims == 0 {
		t.Fatal("no span claims counted")
	}

	// The trace must cover the whole run: one run_start, one run_end, and
	// a claim/done/emit triple per span.
	lines := strings.Split(strings.TrimRight(traceBuf.String(), "\n"), "\n")
	counts := map[string]int{}
	for _, line := range lines {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		counts[ev.Ev]++
	}
	if counts["run_start"] != 1 || counts["run_end"] != 1 {
		t.Fatalf("trace run boundaries: %v", counts)
	}
	if uint64(counts["span_claim"]) != s.Scheduler.SpanClaims {
		t.Fatalf("trace has %d span_claim events, scheduler counted %d", counts["span_claim"], s.Scheduler.SpanClaims)
	}
	if counts["span_emit"] != counts["span_claim"] || counts["span_done"] != counts["span_claim"] {
		t.Fatalf("trace span lifecycle incomplete: %v", counts)
	}
	if uint64(counts["checkpoint"]) != s.Sinks.Checkpoints {
		t.Fatalf("trace has %d checkpoint events, sinks counted %d", counts["checkpoint"], s.Sinks.Checkpoints)
	}
}

// TestMetricsEndpointMidCampaign scrapes /metrics and /campaign/progress
// while a campaign is live, then reconciles the final scrape against the
// summary — the acceptance criterion for the introspection endpoint.
func TestMetricsEndpointMidCampaign(t *testing.T) {
	reg := obs.NewCampaign(4)
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	scraped := false
	dir := t.TempDir()
	sum, jsonl := runCampaign(t, dir, 4, func(c *Config) {
		c.Obs = reg
		c.Progress = func(done, total int) {
			if scraped || done == 0 {
				return
			}
			scraped = true
			// Mid-flight: the run is between spans right now.
			metrics := get("/metrics")
			for _, family := range []string{
				"campaign_targets_done", "campaign_scheduler_span_claims_total",
				"campaign_worker_targets_total", "campaign_probe_latency_seconds_count",
				"campaign_sim_events_total", "campaign_netem_frames_born_total",
				"campaign_sink_bytes_total", "campaign_targets_per_second",
			} {
				if !strings.Contains(metrics, family) {
					t.Errorf("mid-campaign /metrics missing %s", family)
				}
			}
			var snap obs.Snapshot
			if err := json.Unmarshal([]byte(get("/campaign/progress")), &snap); err != nil {
				t.Errorf("progress endpoint: %v", err)
			}
			if snap.Done != int64(done) || snap.Total != int64(total) {
				t.Errorf("progress endpoint says %d/%d, emit frontier is %d/%d",
					snap.Done, snap.Total, done, total)
			}
		}
	})
	if !scraped {
		t.Fatal("progress hook never fired")
	}

	// Final reconciliation against the summary and the output file.
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/campaign/progress")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Workers.Targets != uint64(sum.Targets) {
		t.Fatalf("endpoint targets %d != summary %d", snap.Workers.Targets, sum.Targets)
	}
	if snap.Scheduler.Retries != uint64(sum.Retried) {
		t.Fatalf("endpoint retries %d != summary retried %d", snap.Scheduler.Retries, sum.Retried)
	}
	if snap.Sinks.JSONLBytes != uint64(len(jsonl)) {
		t.Fatalf("endpoint jsonl bytes %d != file %d", snap.Sinks.JSONLBytes, len(jsonl))
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "campaign_targets_done "+itoa(sum.Targets)+"\n") {
		t.Fatalf("final /metrics does not report %d done targets", sum.Targets)
	}
}

func itoa(n int) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			return string(b[i:])
		}
	}
}

// TestInterruptDrainsAndResumes is the graceful-shutdown contract: closing
// Interrupt mid-run stops dispatch, drains in-flight spans, checkpoints the
// drain point, and a resumed run completes the campaign with total output
// byte-identical to an uninterrupted one.
func TestInterruptDrainsAndResumes(t *testing.T) {
	refDir := t.TempDir()
	_, want := runCampaign(t, refDir, 2, nil)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	interrupt := make(chan struct{})
	closed := false
	sum, partial := runCampaign(t, dir, 2, func(c *Config) {
		c.CheckpointPath = ckpt
		// Single-target spans under a two-target window: when Progress
		// reports the second emit, dispatch can have granted no more
		// than the first few targets, so the drain point lands early
		// however the workers are scheduled.
		c.Batch = 1
		c.Window = 2
		c.Interrupt = interrupt
		c.Progress = func(done, total int) {
			if !closed && done >= 2 {
				closed = true
				close(interrupt)
			}
		}
	})
	total := len(bytes.Split(bytes.TrimRight(want, "\n"), []byte("\n")))
	got := strings.Count(string(partial), "\n")
	if got >= total {
		t.Fatalf("drain finished the whole campaign (%d targets) before quiesce took effect", got)
	}
	if !sum.Interrupted {
		t.Fatalf("summary of a drained run (%d/%d emitted) not marked interrupted", got, total)
	}
	if sum.Targets != got {
		t.Fatalf("partial summary covers %d targets, %d emitted", sum.Targets, got)
	}
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done != got {
		t.Fatalf("checkpoint records %d done, %d emitted", ck.Done, got)
	}
	if !bytes.Equal(partial, want[:len(partial)]) {
		t.Fatal("drained prefix differs from the uninterrupted run's prefix")
	}

	sum2, full := runCampaign(t, dir, 2, func(c *Config) {
		c.CheckpointPath = ckpt
		c.Resume = true
	})
	if sum2.Interrupted {
		t.Fatal("resumed run marked interrupted")
	}
	if !bytes.Equal(full, want) {
		t.Fatal("resumed campaign output differs from an uninterrupted run")
	}
	if sum2.Targets != total {
		t.Fatalf("resumed summary covers %d targets, want %d", sum2.Targets, total)
	}
}
