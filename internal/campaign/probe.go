package campaign

import (
	"errors"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/metrics"
	"reorder/internal/obs"
	"reorder/internal/sim"
	"reorder/internal/simnet"
)

// TargetResult is the streamed, per-target campaign record. Field order is
// the JSONL column order; keep it append-only so old campaign outputs stay
// parseable.
type TargetResult struct {
	Index      int    `json:"index"`
	Name       string `json:"name"`
	Profile    string `json:"profile"`
	Impairment string `json:"impairment"`
	Test       string `json:"test"`
	Seed       uint64 `json:"seed"`

	// Attempts is how many probe attempts this result took (1 = first try).
	Attempts int `json:"attempts"`
	// Err is the terminal error, empty on success.
	Err string `json:"error,omitempty"`
	// DCTExcluded records why the dual test's own IPID validation ruled
	// the target out: ipid.ReasonZero or ipid.ReasonNonMonotonic.
	DCTExcluded string `json:"dct_excluded,omitempty"`

	FwdValid     int     `json:"fwd_valid"`
	FwdReordered int     `json:"fwd_reordered"`
	FwdRate      float64 `json:"fwd_rate"`
	RevValid     int     `json:"rev_valid"`
	RevReordered int     `json:"rev_reordered"`
	RevRate      float64 `json:"rev_rate"`

	// AnyReordering is the §IV-B "measurement with at least one reordered
	// sample" bit.
	AnyReordering bool `json:"any_reordering"`
	// RTTMicros is the mean sample round-trip time in microseconds.
	RTTMicros int64 `json:"rtt_us"`
	// SeqRatio is the IPPM reordered-packet ratio of the transfer test's
	// arrival sequence (transfer only).
	SeqRatio float64 `json:"seq_ratio,omitempty"`

	// SeqReceived is the number of data segments in the transfer test's
	// arrival sequence; the RFC 4737 fields below are meaningful only when
	// it is nonzero (transfer only, like SeqRatio).
	SeqReceived int `json:"seq_received,omitempty"`
	// SeqMaxExtent is the largest RFC 4737 §4.2.1 reordering extent in the
	// arrival sequence: how far back, in arrival positions, the most
	// displaced segment landed.
	SeqMaxExtent int `json:"seq_max_extent,omitempty"`
	// SeqNReordering is the count of 3-reordered segments (RFC 4737 §5.4
	// n-reordering at n = 3, the classic TCP duplicate-ACK threshold).
	SeqNReordering int `json:"seq_n_reordering,omitempty"`
	// SeqDupthreshExposure is SeqNReordering over SeqReceived: the
	// fraction of segments a dupthresh-3 sender would misread as loss and
	// spuriously fast-retransmit.
	SeqDupthreshExposure float64 `json:"seq_dupthresh_exposure,omitempty"`

	// Topology names the routed-graph topology the target ran over; empty
	// for the classic point-to-point path, so pre-topology records are
	// byte-identical. JSONL column order is append-only.
	Topology string `json:"topology,omitempty"`
	// Scenario names the fault schedule the target ran under; empty for
	// the static case, so pre-scenario records are byte-identical. Keep
	// this field last: JSONL column order is append-only.
	Scenario string `json:"scenario,omitempty"`
}

// PathRate is the target's overall reordering rate: valid samples from
// both directions pooled, as the survey's per-path statistic pools them.
func (r *TargetResult) PathRate() (float64, bool) {
	valid := r.FwdValid + r.RevValid
	if valid == 0 {
		return 0, false
	}
	return float64(r.FwdReordered+r.RevReordered) / float64(valid), true
}

// ProbeArena is the reusable machinery a campaign worker probes targets
// with: one simulated scenario and one prober, re-seeded per target
// instead of constructed afresh. Reuse is observably equivalent to fresh
// construction — simnet.Net.Reset and core.Prober.Reset restore the exact
// fresh-start state — so arena probes yield byte-identical campaign output
// at any worker count and across resume; the campaign tests pin this. A
// ProbeArena is not safe for concurrent use: one worker, one arena.
type ProbeArena struct {
	net    *simnet.Net
	prober *core.Prober

	// rng, impRng, topoRng and scnRng are the per-target stream and its
	// impairment, topology and scenario forks, reseeded per probe instead
	// of allocated. topoRng and scnRng are forked only for targets that
	// carry a topology (resp. scenario), so classic probes consume the
	// stream exactly as they did before either dimension existed.
	rng, impRng, topoRng, scnRng *sim.Rand
	// topoSpec, paths and scn are the storage the target's topology,
	// impairment and scenario are built into; result and seqRep are the
	// storage the technique measures into. All of it is valid until the
	// next probe through this arena.
	topoSpec simnet.TopologySpec
	paths    pathStore
	scn      scenarioStore
	result   core.Result
	seqRep   metrics.Report
	// backends is the scratch the load-balanced pool's profiles are
	// copied into before per-target mutation (the prototypes are shared).
	backends []host.Profile

	// obs, when set, receives per-probe simulator and netem statistics,
	// harvested once per target after the probe runs (every stat is final
	// then: the scenario resets at the start of the next probe, not the end
	// of this one). Harvesting is a handful of atomic adds, off the sample
	// path entirely. lastSimNs is the most recent probe's simulated time,
	// kept for retry trace events.
	obs       *obs.Worker
	lastSimNs int64
}

// NewProbeArena returns an empty arena; the first probe populates it.
func NewProbeArena() *ProbeArena { return &ProbeArena{} }

// debugDegenerateTopology, when set by tests, forces point-to-point targets
// through the graph constructor's empty-spec dispatch. Never set outside
// tests.
var debugDegenerateTopology bool

// debugZeroSchedule, when set by tests, attaches zeroMagnitudeScenario to
// static targets: a timeline whose every step reasserts the value it finds,
// pinning that live schedule timers alone never move a byte of output.
// Never set outside tests.
var debugZeroSchedule bool

// debugCaptures, when set by tests, keeps the capture taps on (they are
// pass-throughs: no measurement moves). Never set outside tests.
var debugCaptures bool

// zeroMagnitudeScenario is a schedule of deliberate no-op edges: rate steps
// with Rate 0 reassert the current rate, queue steps with Queue -1 keep the
// current bound. It draws no randomness to build or apply, so attaching it
// must leave campaign output byte-identical.
var zeroMagnitudeScenario = &simnet.ScenarioSpec{Steps: []simnet.TimelineStep{
	{At: 5 * time.Millisecond, Op: simnet.OpLinkRate, Dir: simnet.DirForward, Rate: 0},
	{At: 5 * time.Millisecond, Op: simnet.OpLinkQueue, Dir: simnet.DirForward, Queue: -1},
	{At: 12 * time.Millisecond, Op: simnet.OpLinkRate, Dir: simnet.DirReverse, Rate: 0},
	{At: 25 * time.Millisecond, Op: simnet.OpLinkQueue, Dir: simnet.DirReverse, Queue: -1},
	{At: 40 * time.Millisecond, Op: simnet.OpLinkRate, Dir: simnet.DirForward, Rate: 0},
	{At: 70 * time.Millisecond, Op: simnet.OpLinkRate, Dir: simnet.DirReverse, Rate: 0},
}}

// SetObserver attaches a telemetry shard to the arena. The shard must be
// owned by the same worker as the arena (one writer per shard).
func (a *ProbeArena) SetObserver(w *obs.Worker) { a.obs = w }

// LastSimNanos returns the simulated time the most recent probe consumed,
// 0 when no observer is attached.
func (a *ProbeArena) LastSimNanos() int64 { return a.lastSimNs }

// harvest folds the finished probe's simulator and netem statistics into
// the observer shard.
func (a *ProbeArena) harvest() {
	o := a.obs
	ls := a.net.Loop.Stats()
	o.SimEvents.Add(ls.Executed)
	o.SimReschedules.Add(ls.Rescheduled)
	o.SimPeakHeap.SetMax(int64(ls.PeakHeapSize))
	a.lastSimNs = int64(a.net.Loop.Now())
	o.SimNanos.AddInt(a.lastSimNs)
	ns := a.net.Stats()
	o.FramesIn.Add(ns.ElemIn)
	o.FramesOut.Add(ns.ElemOut)
	o.FramesDrop.Add(ns.ElemDropped)
	o.FramesSwap.Add(ns.ElemSwapped)
	o.FramesBorn.Add(ns.FramesBorn)
	o.Materialized.Add(ns.Materialized)
}

// ProbeTarget probes t through the arena into a fresh result.
func (a *ProbeArena) ProbeTarget(t Target, samples int, attempt int) *TargetResult {
	res := &TargetResult{}
	a.ProbeTargetInto(res, t, samples, attempt)
	return res
}

// ProbeTarget runs one target's measurement hermetically: the scenario,
// prober and all randomness derive from the target spec and attempt
// number alone, so a probe's outcome is independent of scheduling, worker
// count and whatever else the campaign is doing. Errors are recorded in
// the result rather than returned: a campaign always yields one record
// per target. A fresh arena's first probe is fresh construction —
// simnet.New, sim.NewRand, Fork — which makes this the reference every
// reused arena is held to.
func ProbeTarget(t Target, samples int, attempt int) *TargetResult {
	return NewProbeArena().ProbeTarget(t, samples, attempt)
}

// ProbeTargetInto probes t through the arena into a caller-owned result,
// overwriting it completely — the allocation-free form the campaign's
// batch pipeline uses with ring-slot results. Everything the probe builds
// and measures on the way — path, topology and scenario specs, the
// technique's samples and reports — lives in the arena and is valid only
// until the next probe through it; res keeps none of it.
func (a *ProbeArena) ProbeTargetInto(res *TargetResult, t Target, samples int, attempt int) {
	if samples <= 0 {
		samples = 8
	}
	*res = TargetResult{
		Index: t.Index, Name: t.Name, Profile: t.Profile,
		Impairment: t.Impairment, Test: t.Test, Seed: t.Seed,
		Attempts: attempt + 1, Topology: t.Topology, Scenario: t.Scenario,
	}

	cfg, err := resolveProfile(t.Profile)
	if err != nil {
		res.Err = err.Error()
		return
	}
	imp, err := impairmentByName(t.Impairment)
	if err != nil {
		res.Err = err.Error()
		return
	}
	topo, err := topologyByName(t.Topology)
	if err != nil {
		res.Err = err.Error()
		return
	}
	scn, err := scenarioByName(t.Scenario)
	if err != nil {
		res.Err = err.Error()
		return
	}

	// Retries re-derive the stream so a fresh attempt sees fresh ports,
	// ISNs and path draws — deterministically, since the attempt sequence
	// of a target is itself deterministic. The arena's retained streams
	// are reseeded, or created on its first probe.
	if a.rng == nil {
		a.rng = sim.NewRand(t.Seed, 0xca3^uint64(attempt))
	} else {
		a.rng.Reseed(t.Seed, 0xca3^uint64(attempt))
	}
	rng := a.rng
	cfg.Seed = rng.Uint64()
	a.impRng = rng.ForkInto(a.impRng, 1)
	cfg.Forward, cfg.Reverse = imp.buildInto(&a.paths, a.impRng)
	// Topology targets consume one extra fork (label 2); point-to-point
	// targets skip it entirely, keeping their stream — and therefore their
	// bytes — identical to pre-topology campaigns.
	if t.Topology != "" {
		a.topoRng = rng.ForkInto(a.topoRng, 2)
		cfg.Topology = topo.buildInto(&a.topoSpec, a.topoRng)
	} else if debugDegenerateTopology {
		// Test hook: route the point-to-point case through the graph
		// constructor's empty-spec branch without touching the stream, so
		// golden-output tests can pin that the dispatch itself is inert.
		cfg.Topology = &simnet.TopologySpec{}
	}
	// Scenario targets consume one more fork (label 3), again skipped
	// entirely for static targets so their stream stays frozen.
	if t.Scenario != "" {
		a.scnRng = rng.ForkInto(a.scnRng, 3)
		cfg.Scenario = scn.buildInto(&a.scn, a.scnRng)
	} else if debugZeroSchedule {
		// Test hook: attach a schedule of pure no-op edges without touching
		// the stream, pinning that timeline timers alone are byte-inert.
		cfg.Scenario = zeroMagnitudeScenario
	}
	// The load-balanced pool's backend prototypes are shared; copy before
	// the per-target ObjectSize mutation below.
	if len(cfg.Backends) > 0 {
		cfg.Backends = append(a.backends[:0], cfg.Backends...)
		a.backends = cfg.Backends
	}
	size := core.TransferObjectSize(samples)
	cfg.Server.TCP.ObjectSize = size
	for i := range cfg.Backends {
		cfg.Backends[i].TCP.ObjectSize = size
	}
	// Campaigns never read the ground-truth captures; skip recording.
	// Taps are pass-throughs, so this changes no measurement outcome.
	cfg.DisableCaptures = !debugCaptures

	// First use constructs, reuse resets; both consume the target stream
	// in the same order: scenario seed, path-spec fork, prober seed.
	if a.net == nil {
		a.net = simnet.New(cfg)
		a.prober = core.NewProber(a.net.Probe(), a.net.ServerAddr(), rng.Uint64())
		if a.obs != nil {
			a.obs.ArenaBuilds.Inc()
		}
	} else {
		a.net.Reset(cfg)
		a.prober.Reset(rng.Uint64())
		if a.obs != nil {
			a.obs.ArenaResets.Inc()
		}
	}

	a.runProbeTest(res, t.Test, samples)
	if a.obs != nil {
		a.harvest()
	}
}

// ProbeStep is the per-target step every campaign worker runs — a pool
// worker in Run, a distributed worker on a leased span: probe one attempt
// and, when it is the target's last, fold the result into the worker's
// aggregator shard (in Run) and render the records asked for — the sinks'
// in Run, the JSONL record a distributed worker reports. One step for both
// modes is what keeps their bytes identical. It is immutable and shared by
// all workers of a run.
type ProbeStep struct {
	targets           []Target
	samples, retries  int
	jsonl, csv        bool
	withTopo, withScn bool // optional CSV columns, decided by the target list
}

// NewProbeStep returns the step for a run over targets. retries must be the
// budget of the scheduler driving the attempts; jsonl and csv say which
// records to render.
func NewProbeStep(targets []Target, samples, retries int, jsonl, csv bool) *ProbeStep {
	return &ProbeStep{
		targets: targets, samples: samples, retries: retries, jsonl: jsonl, csv: csv,
		withTopo: hasTopology(targets), withScn: hasScenario(targets),
	}
}

// Attempt probes target index through arena into res, reporting to the
// arena's observer. It returns false when the attempt failed with retry
// budget left: nothing is recorded and the caller's scheduler retries.
// Otherwise res is final — added to shard unless that is nil (a distributed
// worker's records are folded where they are emitted), its JSONL record and
// CSV row appended to *json and *csv when the step renders them — and
// Attempt returns true.
func (s *ProbeStep) Attempt(arena *ProbeArena, index, attempt int, res *TargetResult, shard *Shard, json, csv *[]byte) bool {
	o := arena.obs
	var probeStart time.Time
	if o != nil {
		o.Attempts.Inc()
		probeStart = time.Now()
	}
	arena.ProbeTargetInto(res, s.targets[index], s.samples, attempt)
	if o != nil {
		o.ProbeNanos.Observe(time.Since(probeStart).Nanoseconds())
	}
	if res.Err != "" && attempt < s.retries {
		return false
	}
	if shard != nil {
		shard.Add(res)
	}
	var jn, cn int
	if s.jsonl {
		jn = len(*json)
		*json = append(res.AppendJSON(*json), '\n')
		jn = len(*json) - jn
	}
	if s.csv {
		cn = len(*csv)
		*csv = appendCSVRow(*csv, res, s.withTopo, s.withScn)
		cn = len(*csv) - cn
	}
	if o != nil {
		o.Targets.Inc()
		o.RenderedJSONBytes.Add(uint64(jn))
		o.RenderedCSVBytes.Add(uint64(cn))
	}
	return true
}

// runProbeTest executes the target's technique against the built scenario,
// measuring into the arena's result storage, and fills the measurement
// fields of res; split out of ProbeTargetInto so the arena can harvest
// end-of-probe telemetry on every exit path.
func (a *ProbeArena) runProbeTest(res *TargetResult, test string, samples int) {
	prober, out := a.prober, &a.result
	err := prober.SurveyTestInto(out, test, samples)
	if errors.Is(err, core.ErrIPIDUnusable) {
		res.DCTExcluded = prober.IPIDExclusion() // an exclusion, not a failure
		return
	}
	if err != nil {
		res.Err = err.Error()
		return
	}

	fwd, rev := out.Forward(), out.Reverse()
	res.FwdValid, res.FwdReordered, res.FwdRate = fwd.Valid(), fwd.Reordered, fwd.Rate()
	res.RevValid, res.RevReordered, res.RevRate = rev.Valid(), rev.Reordered, rev.Rate()
	res.AnyReordering = out.AnyReordering()
	res.RTTMicros = out.MeanRTT().Microseconds()
	if sm := out.SequenceMetricsInto(&a.seqRep); sm != nil {
		res.SeqRatio = sm.Ratio()
		res.SeqReceived = sm.Received
		res.SeqMaxExtent = sm.MaxExtent()
		res.SeqNReordering = sm.NReordered(3)
		if sm.Received > 0 {
			res.SeqDupthreshExposure = float64(res.SeqNReordering) / float64(sm.Received)
		}
	}
}
