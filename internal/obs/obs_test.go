package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.AddInt(3)
	c.AddInt(-7) // negatives ignored (stepped clocks)
	if got := c.Load(); got != 8 {
		t.Fatalf("counter = %d, want 8", got)
	}
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge after SetMax = %d, want 5", got)
	}
	g.Set(-1)
	if got := g.Load(); got != -1 {
		t.Fatalf("gauge after Set = %d, want -1", got)
	}
}

func TestRecorderBinning(t *testing.T) {
	var r Recorder
	r.Observe(0)
	r.Observe(-5) // clamps to zero
	r.Observe(1)
	r.Observe(1023) // [512,1024) → bin 10
	r.Observe(1024) // [1024,2048) → bin 11
	if got := r.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := r.Sum(); got != 0+0+1+1023+1024 {
		t.Fatalf("sum = %d, want 2048", got)
	}
	counts := make([]uint64, recorderBins)
	min, max := r.snapshotInto(counts, math.NaN(), math.NaN())
	if min != 0 || max != 1024 {
		t.Fatalf("min/max = %g/%g, want 0/1024", min, max)
	}
	want := map[int]uint64{0: 2, 1: 1, 10: 1, 11: 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bin %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestRecorderClampsHugeValues(t *testing.T) {
	var r Recorder
	r.Observe(math.MaxInt64) // far past the top bin: must clamp, not panic
	counts := make([]uint64, recorderBins)
	r.snapshotInto(counts, math.NaN(), math.NaN())
	if counts[recorderBins-1] != 1 {
		t.Fatalf("top bin = %d, want 1", counts[recorderBins-1])
	}
}

func TestMergeRecorders(t *testing.T) {
	if h := MergeRecorders(); h != nil {
		t.Fatalf("empty merge = %v, want nil", h)
	}
	if h := MergeRecorders(nil, &Recorder{}); h != nil {
		t.Fatalf("merge of unobserved shards = %v, want nil", h)
	}
	var a, b Recorder
	for i := 0; i < 90; i++ {
		a.Observe(100) // bin 7: [64,128)
	}
	for i := 0; i < 10; i++ {
		b.Observe(100_000) // bin 17: [65536,131072)
	}
	h := MergeRecorders(&a, &b, nil)
	if h == nil {
		t.Fatal("merge = nil")
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("merged count = %d, want 100", got)
	}
	if h.Min() != 100 || h.Max() != 100_000 {
		t.Fatalf("min/max = %g/%g, want 100/100000", h.Min(), h.Max())
	}
	// p50 falls in a's octave, p99 in b's.
	if q := h.Quantile(0.5); q < 64 || q >= 128 {
		t.Fatalf("p50 = %g, want within [64,128)", q)
	}
	if q := h.Quantile(0.99); q < 65536 || q > 131072 {
		t.Fatalf("p99 = %g, want within [65536,131072]", q)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var c *Campaign
	c.StartRun(0, 10)
	c.NoteProgress(5, 10)
	c.NoteQuiesce()
	if d, tot, r := c.Progress(); d != 0 || tot != 0 || r != 0 {
		t.Fatalf("nil Progress = %d/%d/%g", d, tot, r)
	}
	if s := c.Snapshot(); s.Done != 0 || s.Scheduler.SpanClaims != 0 {
		t.Fatalf("nil Snapshot = %+v", s)
	}
	if c.SchedObs() != nil {
		t.Fatal("nil SchedObs != nil")
	}
	if c.ProbeLatencyHistogram() != nil {
		t.Fatal("nil ProbeLatencyHistogram != nil")
	}
	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil WritePrometheus wrote %q", buf.String())
	}
	var tr *Trace
	tr.RunStart(1, 1, 0)
	tr.SpanClaim(0, 0, 1)
	tr.SpanDone(0, 0, 1, 0, 0)
	tr.SpanEmit(0, 1, 1)
	tr.Retry(0, 0, 1, 0, "x")
	tr.Checkpoint(1, 0)
	tr.Quiesce(1)
	tr.RunEnd(1, false, "")
	if err := tr.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if tr.Events() != 0 {
		t.Fatal("nil Events != 0")
	}
}

func TestWorkerShardWrap(t *testing.T) {
	c := NewCampaign(2)
	if c.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", c.Workers())
	}
	if c.Worker(0) == c.Worker(1) {
		t.Fatal("distinct shards aliased")
	}
	if c.Worker(2) != c.Worker(0) || c.Worker(5) != c.Worker(1) {
		t.Fatal("shard index does not wrap")
	}
	if NewCampaign(0).Workers() != 1 {
		t.Fatal("zero workers did not clamp to 1")
	}
}

func TestProgressEWMA(t *testing.T) {
	c := NewCampaign(1)
	now := time.Unix(1000, 0)
	c.nowForTest = func() time.Time { return now }
	c.StartRun(0, 100)

	now = now.Add(time.Second)
	c.NoteProgress(50, 100) // first note seeds the EWMA at 50/s
	if _, _, r := c.Progress(); math.Abs(r-50) > 1e-9 {
		t.Fatalf("seed rate = %g, want 50", r)
	}

	now = now.Add(time.Second)
	c.NoteProgress(70, 100) // instant 20/s pulls the EWMA down, partway
	_, _, r := c.Progress()
	if r >= 50 || r <= 20 {
		t.Fatalf("ewma rate = %g, want within (20,50)", r)
	}
	alpha := 1 - math.Exp(-1.0/ewmaTau.Seconds())
	want := 50 + alpha*(20-50)
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("ewma rate = %g, want %g", r, want)
	}

	s := c.Snapshot()
	if s.Done != 70 || s.Total != 100 {
		t.Fatalf("snapshot done/total = %d/%d, want 70/100", s.Done, s.Total)
	}
	if math.Abs(s.WallSeconds-2) > 1e-9 {
		t.Fatalf("wall = %g, want 2", s.WallSeconds)
	}
	if math.Abs(s.AvgRate-35) > 1e-9 {
		t.Fatalf("avg rate = %g, want 35", s.AvgRate)
	}
}

func TestNoteQuiesceCountsOnce(t *testing.T) {
	c := NewCampaign(1)
	c.NoteQuiesce()
	c.NoteQuiesce()
	if got := c.Sched.Quiesces.Load(); got != 1 {
		t.Fatalf("quiesces = %d, want 1", got)
	}
}

func TestSnapshotAggregatesShards(t *testing.T) {
	c := NewCampaign(3)
	for i := 0; i < 3; i++ {
		w := c.Worker(i)
		w.Targets.Add(uint64(10 * (i + 1)))
		w.ProbeNanos.Observe(int64(1000 * (i + 1)))
		w.SimPeakHeap.SetMax(int64(5 + i))
		w.FramesDrop.Add(uint64(i))
	}
	s := c.Snapshot()
	if s.Workers.Targets != 60 {
		t.Fatalf("targets = %d, want 60", s.Workers.Targets)
	}
	if s.Workers.SimPeakHeap != 7 {
		t.Fatalf("peak heap = %d, want max(5,6,7)=7", s.Workers.SimPeakHeap)
	}
	if s.Workers.FramesDrop != 3 {
		t.Fatalf("drops = %d, want 3", s.Workers.FramesDrop)
	}
	if s.ProbeLatency.Count != 3 {
		t.Fatalf("probe count = %d, want 3", s.ProbeLatency.Count)
	}
	if s.ProbeLatency.MinNs != 1000 || s.ProbeLatency.MaxNs != 3000 {
		t.Fatalf("probe min/max = %g/%g, want 1000/3000", s.ProbeLatency.MinNs, s.ProbeLatency.MaxNs)
	}
	if s.ProbeLatency.SumNs != 6000 {
		t.Fatalf("probe sum = %d, want 6000", s.ProbeLatency.SumNs)
	}
}

// TestWritePrometheusWellFormed checks exposition-format invariants: every
// line is a comment or `name[{labels}] value`, HELP/TYPE precede samples,
// histogram buckets are cumulative and agree with _count.
func TestWritePrometheusWellFormed(t *testing.T) {
	c := NewCampaign(2)
	c.StartRun(0, 100)
	c.Sched.SpanClaims.Add(7)
	c.Worker(0).ProbeNanos.Observe(1500)
	c.Worker(1).ProbeNanos.Observe(900_000)
	c.Sinks.JSONLBatches.Inc()
	c.Sinks.JSONLBytes.Add(512)
	c.NoteProgress(42, 100)

	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	out := buf.String()

	typed := map[string]string{}
	var bucketCum uint64
	var bucketFamily string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := typed[f[2]]; dup {
				t.Fatalf("duplicate TYPE for family %s", f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment %q", line)
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("sample line %q has %d fields, want 2", line, len(f))
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name = name[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q precedes its TYPE", line)
		}
		if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
			var cum uint64
			if _, err := fmtSscan(f[1], &cum); err != nil {
				t.Fatalf("bucket value %q: %v", f[1], err)
			}
			if family != bucketFamily {
				bucketFamily, bucketCum = family, 0
			}
			if cum < bucketCum {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			bucketCum = cum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"campaign_targets_done 42",
		"campaign_targets_total 100",
		"campaign_scheduler_span_claims_total 7",
		`campaign_sink_bytes_total{sink="jsonl"} 512`,
		"campaign_probe_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPromBucketBoundsInclusive checks that every le bucket counts exactly
// the observations at or below its bound, across the power-of-two bucket
// boundaries where an exclusive bound and le's ≤ disagree.
func TestPromBucketBoundsInclusive(t *testing.T) {
	var r Recorder
	obs := []int64{0, 1}
	for _, k := range []uint{1, 4, 10, 20, 32, 40} {
		obs = append(obs, 1<<k-1, 1<<k)
	}
	for _, ns := range obs {
		r.Observe(ns)
	}
	var buf bytes.Buffer
	promRecorders(&buf, "x", "test", &r)
	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		le, count, ok := strings.Cut(strings.TrimPrefix(line, `x_bucket{le="`), `"} `)
		if !ok || le == "+Inf" {
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bucket bound in %q: %v", line, err)
		}
		want := 0
		for _, ns := range obs {
			if float64(ns)/1e9 <= bound {
				want++
			}
		}
		if count != strconv.Itoa(want) {
			t.Errorf("%s: count %s, want %d observations <= %g s", line, count, want, bound)
		}
		lines++
	}
	if lines < 40 {
		t.Fatalf("only %d finite bucket lines:\n%s", lines, buf.String())
	}
}

func fmtSscan(s string, v *uint64) (int, error) {
	var n uint64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errNotUint
		}
		n = n*10 + uint64(r-'0')
	}
	*v = n
	return 1, nil
}

var errNotUint = bytes.ErrTooLarge // any sentinel; message unused

func TestTraceEventsAreJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.RunStart(2016, 8, 0)
	tr.SpanClaim(3, 0, 32)
	tr.Retry(3, 17, 1, 120_000, `timeout "quoted"`)
	tr.SpanDone(3, 0, 32, 777, 2048)
	tr.SpanEmit(0, 32, 32)
	tr.Checkpoint(32, 4500)
	tr.Quiesce(32)
	tr.RunEnd(32, true, "interrupted")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Events(); got != 8 {
		t.Fatalf("events = %d, want 8", got)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("trace has %d lines, want 8:\n%s", len(lines), buf.String())
	}
	wantEv := []string{"run_start", "span_claim", "retry", "span_done", "span_emit", "checkpoint", "quiesce", "run_end"}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		if m["ev"] != wantEv[i] {
			t.Fatalf("line %d ev = %v, want %s", i, m["ev"], wantEv[i])
		}
		if _, ok := m["t_ns"].(float64); !ok {
			t.Fatalf("line %d missing t_ns: %s", i, line)
		}
	}
	var retry map[string]any
	json.Unmarshal([]byte(lines[2]), &retry)
	if retry["error"] != `timeout "quoted"` {
		t.Fatalf("retry error = %v", retry["error"])
	}
	if retry["sim_ns"] != float64(120_000) {
		t.Fatalf("retry sim_ns = %v", retry["sim_ns"])
	}
	var end map[string]any
	json.Unmarshal([]byte(lines[7]), &end)
	if end["interrupted"] != float64(1) {
		t.Fatalf("run_end interrupted = %v", end["interrupted"])
	}
}

// TestTraceErrorTextsStayJSON: error texts holding bytes Go quoting and
// JSON escape differently — control bytes, invalid UTF-8, U+2028, HTML
// characters — still leave every line valid JSON, carrying the string
// encoding/json reads back from its own encoding.
func TestTraceErrorTextsStayJSON(t *testing.T) {
	texts := []string{
		"ctl \x00\x01\x07\b\f\x1b\x7f end",
		"bad \xff\xfe utf8 \xc3",
		"line\u2028sep\u2029para",
		`<tag attr="v"> & 'q' \ back`,
		"tab\t nl\n cr\r ünïcode ✓",
	}
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	for i, s := range texts {
		tr.Retry(1, i, 1, 10, s)
		tr.RunEnd(i, false, s)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2*len(texts) {
		t.Fatalf("trace has %d lines, want %d", len(lines), 2*len(texts))
	}
	for i, line := range lines {
		s := texts[i/2]
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %s", i, line)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		var ev struct{ Error string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Error != want {
			t.Fatalf("line %d carries error %q (%v), want %q", i, ev.Error, err, want)
		}
	}
}

// TestConcurrentScrapeIsRaceFree hammers one registry from writer and
// scraper goroutines; the race detector is the assertion.
func TestConcurrentScrapeIsRaceFree(t *testing.T) {
	const perWorker = 5000
	c := NewCampaign(4)
	c.StartRun(0, 1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := c.Worker(w)
			for i := 0; i < perWorker; i++ {
				sh.Targets.Inc()
				sh.ProbeNanos.Observe(int64(i%100_000 + 1))
				sh.SimPeakHeap.SetMax(int64(i % 64))
			}
		}(w)
	}
	var tracebuf bytes.Buffer
	tr := NewTrace(&tracebuf)
	for i := 0; i < 50; i++ {
		_ = c.Snapshot()
		var buf bytes.Buffer
		c.WritePrometheus(&buf)
		c.NoteProgress(i*20, 1000)
		tr.SpanEmit(i, i+1, i+1)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Workers.Targets != 4*perWorker || s.ProbeLatency.Count != 4*perWorker {
		t.Fatalf("lost writes: targets %d, latency count %d, want %d",
			s.Workers.Targets, s.ProbeLatency.Count, 4*perWorker)
	}
	tr.Close()
}

// TestAbsorbRemoteDist checks a remote worker's dist-plane counters fold
// into the coordinator registry's totals (reconnects happen on the worker
// side of the wire and ship at bye, like scheduler retries do).
func TestAbsorbRemoteDist(t *testing.T) {
	remote := NewCampaign(1)
	remote.Dist.Reconnects.Add(3)
	remote.Dist.LeaseReissues.Add(2)

	coord := NewCampaign(2)
	coord.Dist.Respawns.Inc()
	if err := coord.AbsorbRemote(0, remote.Wire()); err != nil {
		t.Fatal(err)
	}
	s := coord.Snapshot()
	if s.Dist.Reconnects != 3 || s.Dist.LeaseReissues != 2 || s.Dist.Respawns != 1 {
		t.Fatalf("dist snapshot = %+v, want reconnects=3 lease_reissues=2 respawns=1", s.Dist)
	}

	// The -stats text gains a dist line only when something healed.
	var buf bytes.Buffer
	s.WriteText(&buf)
	if !strings.Contains(buf.String(), "dist: 3 reconnects, 1 respawns, 2 lease re-issues, 0 accept retries") {
		t.Fatalf("stats text missing dist line:\n%s", buf.String())
	}
	buf.Reset()
	NewCampaign(1).Snapshot().WriteText(&buf)
	if strings.Contains(buf.String(), "dist:") {
		t.Fatalf("quiet run printed a dist line:\n%s", buf.String())
	}
}

// TestSnapshotWriteTextGolden pins the -stats report byte for byte with
// every block populated: the probe-latency line, the flush clause and the
// dist line appear only when they have something to say, and durations
// are rounded to 100ns.
func TestSnapshotWriteTextGolden(t *testing.T) {
	s := Snapshot{
		WallSeconds: 1.5, Done: 2016, Total: 2016, AvgRate: 1344, InstRate: 1401.6,
		Scheduler: SchedulerSnapshot{SpanClaims: 63, WindowStalls: 4, WindowStallNanos: 2_500_000, Retries: 40, Quiesces: 1},
		Workers: WorkerTotals{
			Targets: 2016, Attempts: 2056, ArenaResets: 2052, ArenaBuilds: 4,
			SimEvents: 151078, SimReschedules: 9120, SimPeakHeap: 37, SimNanos: 1_530_250_000_000,
			FramesIn: 88000, FramesOut: 87500, FramesDrop: 500, FramesSwap: 1200, FramesBorn: 30000, Materialized: 12,
			RenderedJSON: 600_000, RenderedCSV: 250_000,
		},
		ProbeLatency: LatencySummary{Count: 2056, MinNs: 3_020, P50Ns: 12_345.6, P90Ns: 48_049.9, P99Ns: 1_234_567, MaxNs: 2_000_050, SumNs: 40_000_000},
		Sinks: SinksSnapshot{
			JSONLBatches: 63, JSONLBytes: 600_000, CSVBatches: 63, CSVBytes: 250_000, Checkpoints: 5,
			Flush: LatencySummary{Count: 126, P99Ns: 987_654.3},
		},
		Dist: DistSnapshot{Reconnects: 1, Respawns: 2, LeaseReissues: 3, AcceptRetries: 4},
	}
	const want = `telemetry: 2016/2016 targets in 1.50s (avg 1344/s, inst 1402/s)
scheduler: 63 span claims, 4 window stalls (2.5ms parked), 40 retries
probe latency: p50=12.3µs p90=48µs p99=1.2346ms max=2.0001ms (n=2056, 2056 attempts)
sim: 151078 events, 9120 reschedules, peak heap 37, 25m30.25s simulated
netem: 30000 frames born, 88000 in, 87500 out, 500 dropped, 1200 swapped, 12 materialized
arenas: 4 builds, 2052 resets
sinks: jsonl 63 batches/600000 bytes, csv 63 batches/250000 bytes, 5 checkpoints, flush p99=987.7µs
dist: 1 reconnects, 2 respawns, 3 lease re-issues, 4 accept retries
`
	var buf bytes.Buffer
	s.WriteText(&buf)
	if buf.String() != want {
		t.Errorf("stats text:\n%s\nwant:\n%s", buf.String(), want)
	}
}
