// Package obs is the runtime telemetry layer: low-overhead instrumentation
// the campaign engine threads through its hot paths (scheduler, workers,
// sinks, the simulation loop and netem elements) so a running campaign can
// be introspected mid-flight without perturbing what it measures — the
// paper's own constraint, applied to the reproduction.
//
// The design mirrors the aggregation architecture the campaign already
// uses for measurement statistics: state is sharded per worker, each shard
// is written by exactly one goroutine through padded atomics (no locks, no
// contention, no allocation on the probe fast path), and aggregation
// happens only at scrape time — a snapshot loads every shard once and
// folds latency recorders into mergeable stats.Histogram values. Nothing
// here is on the measurement clock: recording a counter is one uncontended
// atomic add, and a disabled registry (nil *Campaign) costs a predictable
// branch at each instrumentation point.
//
// Three surfaces consume the same snapshot:
//
//   - An HTTP endpoint (Serve): Prometheus text-format /metrics, JSON
//     /campaign/progress (the mid-flight summary a future campaignd would
//     stream), and /debug/pprof.
//   - A structured JSONL run trace (Trace): span lifecycle, retry,
//     checkpoint and flush events with wall and simulated timestamps.
//   - A final -stats report (Snapshot.WriteText) appended to the campaign
//     summary.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"reorder/internal/stats"
)

// Counter is a monotonic event count: one writer at a time (the owning
// worker or the serial in-order emit), any number of concurrent readers. Aligned atomics make
// reads race-free under the race detector without any locking.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// AddInt adds n, ignoring negatives (durations from a stepped clock).
func (c *Counter) AddInt(n int64) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a last-value or running-maximum cell with the same
// single-writer/many-reader contract as Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger. Single-writer, so the
// load/store pair needs no CAS.
func (g *Gauge) SetMax(v int64) {
	if v > g.v.Load() {
		g.v.Store(v)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// recorderBins is the Recorder resolution: power-of-two buckets of
// nanoseconds, bucket b covering [2^(b-1), 2^b) ns (bucket 0 holds zero).
// 48 bins span sub-nanosecond to ~39 hours, so no latency this system can
// produce ever clamps.
const recorderBins = 48

// recorderEdgesV is the shared stats.Histogram edge layout every Recorder
// snapshot uses; sharing one slice makes shard merges skip the pointwise
// edge comparison.
var recorderEdgesV = func() []float64 {
	edges := make([]float64, recorderBins+1)
	edges[0] = 0
	for i := 1; i <= recorderBins; i++ {
		edges[i] = math.Ldexp(1, i-1) // 2^(i-1)
	}
	return edges
}()

// Recorder is a latency recorder: power-of-two nanosecond buckets counted
// with single-writer atomics, binned by one bits.Len64 — no search, no
// floating point, no allocation. Each worker owns one Recorder shard;
// Snapshot folds a shard into a stats.Histogram at scrape time, and shard
// histograms merge exactly (integer bin counts, exact min/max) no matter
// when each was snapped. Quantiles are bucket-interpolated and therefore
// resolved to within one octave — telemetry resolution, deliberately
// cheaper than the measurement-grade histograms the campaign aggregates.
type Recorder struct {
	counts [recorderBins]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	minP1  atomic.Int64 // min+1; 0 = no samples yet (zero value usable)
	max    atomic.Int64
}

// Observe records one duration in nanoseconds. Negative values clamp to
// zero (a stepped wall clock can run backwards).
func (r *Recorder) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= recorderBins {
		b = recorderBins - 1
	}
	r.counts[b].Add(1)
	r.count.Add(1)
	r.sum.Add(uint64(ns))
	// Single-writer: plain load-compare-store is race-free for the writer,
	// and readers always see a consistent (if momentarily stale) value.
	if m := r.minP1.Load(); m == 0 || ns+1 < m {
		r.minP1.Store(ns + 1)
	}
	if ns > r.max.Load() {
		r.max.Store(ns)
	}
}

// Count returns the number of observations.
func (r *Recorder) Count() uint64 { return r.count.Load() }

// Sum returns the total observed nanoseconds.
func (r *Recorder) Sum() uint64 { return r.sum.Load() }

// snapshotInto adds the recorder's current bin counts into counts (a
// scratch slice of recorderBins entries) and widens min/max, returning the
// updated exact extrema. It is how shards aggregate at scrape time.
func (r *Recorder) snapshotInto(counts []uint64, min, max float64) (float64, float64) {
	for i := range r.counts {
		counts[i] += r.counts[i].Load()
	}
	if m := r.minP1.Load(); m != 0 {
		if v := float64(m - 1); math.IsNaN(min) || v < min {
			min = v
		}
	}
	if r.count.Load() > 0 {
		if v := float64(r.max.Load()); math.IsNaN(max) || v > max {
			max = v
		}
	}
	return min, max
}

// MergeRecorders folds any number of recorder shards into one mergeable
// histogram (nil when no shard has observed anything).
func MergeRecorders(rs ...*Recorder) *stats.Histogram {
	counts := make([]uint64, recorderBins)
	min, max := math.NaN(), math.NaN()
	for _, r := range rs {
		if r == nil {
			continue
		}
		min, max = r.snapshotInto(counts, min, max)
	}
	if math.IsNaN(min) {
		return nil
	}
	return stats.HistogramFromCounts(recorderEdgesV, counts, min, max)
}

// Scheduler is the orchestrator's telemetry: dispatch and retries, shared
// by all workers. Every field is low-frequency (per span,
// per stall, per retry — never per target on the fast path), so one shared
// cache-line-padded block suffices.
type Scheduler struct {
	_ [64]byte
	// SpanClaims counts dispatch spans the span table granted.
	SpanClaims Counter
	// WindowStalls counts workers — pool goroutines, or a coordinator's
	// remote workers — parking because the next span lay beyond the dispatch
	// window, and WindowStallNanos the wall time they spent parked: how
	// often the in-order emit frontier (one slow target) held them back.
	WindowStalls     Counter
	WindowStallNanos Counter
	// Retries counts failed attempts that were retried.
	Retries Counter
	// Quiesces counts graceful-shutdown requests observed (0 or 1).
	Quiesces Counter
	_        [64]byte
}

// Worker is one campaign worker's telemetry shard: written only by that
// worker, read by scrapers. Each Worker is allocated separately and padded
// so no two workers' hot counters share a cache line.
type Worker struct {
	_ [64]byte

	// Targets counts terminal per-target results produced; Attempts counts
	// probe attempts including retries.
	Targets  Counter
	Attempts Counter
	// ProbeNanos is the per-target probe wall-latency recorder.
	ProbeNanos Recorder
	// ArenaResets counts scenario-arena reuses (Net.Reset), ArenaBuilds
	// first-time constructions.
	ArenaResets Counter
	ArenaBuilds Counter

	// Simulation-loop internals, accumulated per target from sim.Loop:
	// events executed, in-place timer reschedules, the deepest event heap
	// seen, and total simulated time.
	SimEvents      Counter
	SimReschedules Counter
	SimPeakHeap    Gauge
	SimNanos       Counter

	// netem element flow, summed over the worker's scenario elements per
	// target: frames accepted, forwarded, dropped (loss, queue overflow,
	// corruption), adjacent swaps, frames born, and lazy wire-byte
	// materializations (the zero-copy fast path's escape hatch).
	FramesIn     Counter
	FramesOut    Counter
	FramesDrop   Counter
	FramesSwap   Counter
	FramesBorn   Counter
	Materialized Counter

	// RenderedJSONBytes / RenderedCSVBytes count sink bytes this worker
	// encoded into span batches. A distributed worker renders only JSONL:
	// its coordinator renders the CSV rows and counts them to the worker's
	// shard.
	RenderedJSONBytes Counter
	RenderedCSVBytes  Counter

	_ [64]byte
}

// Dist is the distributed-plane telemetry: the self-healing machinery's
// event counts. Reconnects and respawns are rare by construction (each one
// is a recovered failure), so one shared padded block is plenty; worker
// processes ship their side (reconnects) to the coordinator at bye.
type Dist struct {
	_ [64]byte
	// Reconnects counts worker sessions re-established after a connection
	// loss (successful re-handshakes, not attempts).
	Reconnects Counter
	// Respawns counts worker processes restarted by the spawn supervisor.
	Respawns Counter
	// LeaseReissues counts spans returned to the re-issue queue by worker
	// loss or lease expiry.
	LeaseReissues Counter
	// AcceptRetries counts temporary accept failures the coordinator's
	// listener loop retried instead of failing the run.
	AcceptRetries Counter
	_             [64]byte
}

// Sinks is the in-order emit's telemetry: batch flushes, durable bytes,
// checkpointing. Written by one goroutine at a time: emits are serial, on
// whichever goroutine completed the span at the emit frontier.
type Sinks struct {
	_ [64]byte
	// JSONLBatches/JSONLBytes and CSVBatches/CSVBytes count batched writes
	// to the two streaming sinks.
	JSONLBatches Counter
	JSONLBytes   Counter
	CSVBatches   Counter
	CSVBytes     Counter
	// FlushNanos records sink-flush latency (the fsync-adjacent cost paid
	// before every checkpoint); Checkpoints counts checkpoint saves.
	FlushNanos  Recorder
	Checkpoints Counter
	_           [64]byte
}

// Campaign is the telemetry registry for one campaign run. A nil *Campaign
// disables all instrumentation; the engine's hot paths gate on that nil
// check alone. Construct with NewCampaign(workers) — worker shards are
// fixed at construction so the probe path never allocates or locks.
type Campaign struct {
	Sched Scheduler
	Sinks Sinks
	Dist  Dist

	workers []*Worker

	// Progress state, published by the serial in-order emit via NoteProgress
	// and read by the HTTP endpoint: emitted targets, campaign size, and
	// an EWMA of the instantaneous emit rate.
	done     atomic.Int64
	total    atomic.Int64
	ewmaBits atomic.Uint64 // float64 bits of the EWMA targets/s

	startWall  time.Time
	lastNote   time.Time
	lastDone   int64
	quiesced   atomic.Bool
	interrupt  atomic.Bool
	nowForTest func() time.Time // test hook; nil = time.Now
}

// NewCampaign returns a registry with one worker shard per worker.
func NewCampaign(workers int) *Campaign {
	if workers <= 0 {
		workers = 1
	}
	c := &Campaign{workers: make([]*Worker, workers)}
	for i := range c.workers {
		c.workers[i] = &Worker{}
	}
	return c
}

// Worker returns shard w. Safe for any w (wraps modulo the shard count),
// mirroring Aggregator.Shard.
func (c *Campaign) Worker(w int) *Worker { return c.workers[w%len(c.workers)] }

// Workers returns the number of worker shards.
func (c *Campaign) Workers() int { return len(c.workers) }

// SchedObs returns the scheduler telemetry block, or nil for a nil
// registry — the form SchedulerConfig.Obs wants.
func (c *Campaign) SchedObs() *Scheduler {
	if c == nil {
		return nil
	}
	return &c.Sched
}

// DistObs returns the distributed-plane telemetry block, or nil for a nil
// registry, mirroring SchedObs.
func (c *Campaign) DistObs() *Dist {
	if c == nil {
		return nil
	}
	return &c.Dist
}

func (c *Campaign) now() time.Time {
	if c.nowForTest != nil {
		return c.nowForTest()
	}
	return time.Now()
}

// StartRun marks the beginning of a run over total targets with done
// already emitted (a resume starts past zero).
func (c *Campaign) StartRun(done, total int) {
	if c == nil {
		return
	}
	c.startWall = c.now()
	c.lastNote = c.startWall
	c.lastDone = int64(done)
	c.done.Store(int64(done))
	c.total.Store(int64(total))
}

// ewmaTau is the time constant of the instantaneous-rate EWMA: a few
// seconds of memory, so the rate tracks warmup and stragglers without
// jittering per span.
const ewmaTau = 5 * time.Second

// NoteProgress publishes the emit frontier. Called serially, after each
// in-order span emit; it also advances the instantaneous-rate
// EWMA from the time and count deltas since the previous note.
func (c *Campaign) NoteProgress(done, total int) {
	if c == nil {
		return
	}
	now := c.now()
	dt := now.Sub(c.lastNote)
	dd := int64(done) - c.lastDone
	if dt > 0 && dd >= 0 {
		inst := float64(dd) / dt.Seconds()
		prev := math.Float64frombits(c.ewmaBits.Load())
		var next float64
		if prev == 0 {
			next = inst // first observation seeds the EWMA
		} else {
			alpha := 1 - math.Exp(-dt.Seconds()/ewmaTau.Seconds())
			next = prev + alpha*(inst-prev)
		}
		c.ewmaBits.Store(math.Float64bits(next))
		c.lastNote = now
		c.lastDone = int64(done)
	}
	c.done.Store(int64(done))
	c.total.Store(int64(total))
}

// NoteQuiesce records that graceful shutdown began draining.
func (c *Campaign) NoteQuiesce() {
	if c == nil {
		return
	}
	if !c.quiesced.Swap(true) {
		c.Sched.Quiesces.Inc()
	}
	c.interrupt.Store(true)
}

// Progress returns the published frontier, total and EWMA rate.
func (c *Campaign) Progress() (done, total int64, instRate float64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.done.Load(), c.total.Load(), math.Float64frombits(c.ewmaBits.Load())
}
