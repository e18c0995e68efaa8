// Command benchmark is the repository's benchmark: five campaign workloads
// measured end to end (targets/s, allocations per target, set-up time) and,
// in a separate traced run, layer by layer (per-target probe latency, CPU
// per target, counts and timed legs of every layer).
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory says why each was chosen and how they are
// expected to interact.
//
// Usage:
//
//	go run ./benchmark                      # every workload, end-to-end metrics
//	go run ./benchmark -trace 1             # every workload, per-layer metrics
//	go run ./benchmark -workload survey-p2p -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -layers-only         # the workload-independent layer legs
//	go run ./benchmark -compare a.json b.json
//
// The last line of standard output is one JSON object: for a single workload
// {"correct","attempted","failed","metrics"}, for several the same object
// per workload under "workloads".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/cli"
)

func main() { cli.Main(run) }

const (
	defaultSeed    = 719
	defaultSeconds = 15
	// setupReps is how many times a run performs its complete set-up; the
	// median is reported, so one slow first touch does not decide setup_s.
	setupReps = 3
	// maxSweeps bounds the probe sweeps of a traced run and sweepShare the
	// part of the measuring time they may take.
	maxSweeps  = 12
	sweepShare = 1.0 / 3
)

type options struct {
	workloads  []string
	seed       uint64
	seconds    float64
	trace      int
	passes     int
	scale      float64
	dir        string
	jsonOut    string
	traceOut   string
	layersOnly bool

	// afterPass, when set by a test, runs between a timed pass and its
	// output check with the pass's JSONL path.
	afterPass func(jsonl string)
}

// bench is one invocation's state.
type bench struct {
	opt     options
	stderr  io.Writer
	workers int
	scratch string
	host    hostInfo
	spans   *spanLog
	legs    map[string]metric

	// ref is the host-speed reference and refNs its samples of this run, in
	// ns per load (hostref.go).
	ref   *hostRef
	refNs []float64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var opt options
	var names string
	var compare bool
	fs.StringVar(&names, "workload", "", "comma-separated workload names (default: all)")
	fs.Uint64Var(&opt.seed, "seed", defaultSeed, "base seed of the generated target lists")
	fs.Float64Var(&opt.seconds, "seconds", defaultSeconds, "measuring time per workload")
	fs.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced run")
	fs.IntVar(&opt.passes, "passes", 0, "timed passes per workload (0: as many as fit in -seconds)")
	fs.Float64Var(&opt.scale, "scale", 1, "scale the seed replicas of every target list (tests use 0.01)")
	fs.StringVar(&opt.dir, "dir", "", "scratch directory (default: a fresh one under .bench_scratch)")
	fs.StringVar(&opt.jsonOut, "json", "", "also write the full result (host, metrics with spreads, hashes) to this file")
	fs.StringVar(&opt.traceOut, "trace-out", "", "write the benchmark's own spans to this file as JSONL")
	fs.BoolVar(&opt.layersOnly, "layers-only", false, "run only the workload-independent layer legs")
	fs.BoolVar(&compare, "compare", false, "compare two -json result files: benchmark -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition, read by -compare for the bounds")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if compare {
		if fs.NArg() != 2 {
			return cli.Usagef("benchmark: -compare wants two result files")
		}
		return compareResults(stdout, *spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return cli.Usagef("benchmark: unexpected argument %q", fs.Arg(0))
	}
	if opt.trace != 0 && opt.trace != 1 {
		return cli.Usagef("benchmark: -trace must be 0 or 1")
	}
	if opt.scale <= 0 || opt.seconds <= 0 || opt.passes < 0 {
		return cli.Usagef("benchmark: -scale and -seconds must be positive, -passes not negative")
	}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			opt.workloads = append(opt.workloads, n)
		}
	}
	return execute(opt, stdout, os.Stderr)
}

// execute runs the benchmark as configured and returns an error when any
// output check failed.
func execute(opt options, stdout, stderr io.Writer) error {
	b := &bench{opt: opt, stderr: stderr, spans: newSpanLog()}
	b.workers = min(runtime.NumCPU(), 4)
	b.ref = newHostRef(b.workers)

	var defs []*workloadDef
	if len(opt.workloads) == 0 {
		for i := range workloadDefs {
			defs = append(defs, &workloadDefs[i])
		}
	}
	for _, name := range opt.workloads {
		var def *workloadDef
		for i := range workloadDefs {
			if workloadDefs[i].name == name {
				def = &workloadDefs[i]
			}
		}
		if def == nil {
			return cli.Usagef("benchmark: unknown workload %q", name)
		}
		defs = append(defs, def)
	}

	// Scratch lives inside the working directory by default: the benchmark
	// contract confines a run to its checkout. -dir can point at tmpfs to
	// take the disk out of durable-resume (see README.md).
	b.scratch = opt.dir
	if b.scratch == "" {
		if err := os.MkdirAll(".bench_scratch", 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(".bench_scratch", "run-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		b.scratch = dir
	} else if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		return err
	}
	b.host = readHost(b.workers, b.scratch)
	if b.host.Noisy {
		fmt.Fprintf(stderr, "benchmark: 1-minute load %.2f exceeds half of %d CPUs: results marked noisy\n", b.host.Load1Start, b.host.NProc)
	}

	res := result{Seed: opt.seed, Scale: opt.scale, Trace: opt.trace, Workloads: map[string]*workloadResult{}}
	record := func(name string, wr *workloadResult) {
		res.Workloads[name] = wr
		res.Order = append(res.Order, name)
		for _, m := range wr.metricList {
			wr.Metrics[m.Name] = m
			fmt.Fprintf(stdout, "%-22s %-42s %16.6g %-10s n=%-6d %s\n", name, m.Name, m.Value, m.Unit, m.N, m.Note)
		}
	}
	var runErr error
	if opt.layersOnly {
		// The legs alone, reported as if they were a workload named "layers".
		if err := b.runLegs(nil); err != nil {
			return err
		}
		record("layers", &workloadResult{Correct: true, Metrics: map[string]metric{}, metricList: b.legMetrics()})
	} else {
		wls, err := b.measure(defs)
		if err != nil {
			return err
		}
		for _, w := range wls {
			record(w.name, b.report(w))
			fmt.Fprintf(stdout, "%-22s passes=%d targets=%d errors=%d jsonl=%s csv=%s\n", w.name,
				len(w.wall)+len(w.tracedWall), len(w.targets), w.ref.Errors, w.ref.JSONL[:16], w.ref.CSV[:16])
			for _, f := range w.failures {
				fmt.Fprintf(stderr, "benchmark: %s: CHECK FAILED: %s\n", w.name, f)
				runErr = cli.ErrReported
			}
		}
	}
	b.host.Load1End = load1()
	b.host.RefNsPerLoad = summarize(b.refNs).Q1
	res.Host = b.host
	res.RefNs = b.refNs

	if opt.traceOut != "" {
		if err := b.spans.writeFile(opt.traceOut); err != nil {
			return err
		}
	}
	if opt.jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opt.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The last line is the machine-readable result.
	var last any = res.contract()
	if len(res.Order) == 1 {
		last = res.Workloads[res.Order[0]].contract()
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return runErr
}

// setup prepares w from nothing: enumerate the targets from the seed,
// fingerprint them, make the scratch directory, run the Batch:1 reference
// pass whose output is the oracle, and one warm-up pass
// through the workload's own entry point. earlier holds the durations of the
// set-ups this one repeats; this one's is appended.
func (b *bench) setup(def *workloadDef, earlier []float64) (*workload, error) {
	w := &workload{workloadDef: def, dir: filepath.Join(b.scratch, def.name)}
	b.sampleRef()
	root := b.spans.begin("setup", w.name, 0)
	defer b.spans.end(root)
	start := time.Now()

	sp := b.spans.begin("campaign.Enumerate", w.name, root)
	enum := def.enum
	enum.BaseSeed = b.opt.seed
	enum.Seeds = max(1, int(float64(def.seeds)*b.opt.scale+0.5))
	targets, err := campaign.Enumerate(enum)
	b.spans.end(sp)
	if err != nil {
		return nil, err
	}
	w.targets = targets
	sp = b.spans.begin("campaign.Fingerprint", w.name, root)
	w.fp = campaign.Fingerprint(targets, samples)
	b.spans.end(sp)
	if err := os.RemoveAll(w.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}

	// The oracle is campaign.Run dispatching target by target: the
	// scheduler's other extreme from the adaptive spans the timed passes
	// use, with no checkpoint and no dist plane. It keeps the pool size of
	// the timed passes: a single-worker reference made half of setup_s
	// single-threaded, and single-thread speed is what drifts most on a
	// shared host (README.md, "Noise on the defining host").
	ref := b.passConfig(w)
	ref.Batch = 1
	sp = b.spans.begin("campaign.Run/reference", w.name, root)
	sum, err := campaign.Run(ref)
	b.spans.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: reference pass: %w", w.name, err)
	}
	if w.ref, err = w.digest(sum); err != nil {
		return nil, fmt.Errorf("%s: reference pass: %w", w.name, err)
	}

	sum, _, err = b.runPass(w, telemetry{}, root)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
	}
	if err := w.verify(sum); err != nil {
		return nil, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
	}
	w.setupS = append(earlier, time.Since(start).Seconds())
	return w, nil
}

// measure sets every workload up and then interleaves their timed passes
// round-robin (A B C A B C ...), so a slow period on a shared host falls on
// all of them alike. Each workload measures for -seconds of its own passes,
// host-reference samples and (traced) sweeps, or for exactly -passes passes.
func (b *bench) measure(defs []*workloadDef) ([]*workload, error) {
	reps := setupReps
	if b.opt.trace == 1 {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var wls []*workload
	for _, def := range defs {
		var w *workload
		var times []float64
		for i := 0; i < reps; i++ {
			var err error
			if w, err = b.setup(def, times); err != nil {
				return nil, err
			}
			times = w.setupS
		}
		wls = append(wls, w)
	}

	budget := time.Duration(b.opt.seconds * float64(time.Second))
	for pass := 0; ; pass++ {
		active := false
		for _, w := range wls {
			if b.opt.passes > 0 && pass >= b.opt.passes || b.opt.passes == 0 && pass > 0 && w.elapsed >= budget {
				continue
			}
			active = true
			start := time.Now()
			b.sampleRef()
			var err error
			if b.opt.trace == 1 {
				err = b.tracedRound(w)
			} else {
				err = b.timedPass(w)
			}
			if err != nil {
				return nil, err
			}
			// The sweeps feed per-layer metrics only, so only the traced
			// run spends time on them.
			if b.opt.trace == 1 && w.sweeps < maxSweeps && float64(w.sweepWall) <= sweepShare*float64(w.elapsed+time.Since(start)) {
				b.sweep(w)
			}
			w.elapsed += time.Since(start)
		}
		if !active {
			break
		}
	}
	b.sampleRef()
	if b.opt.trace == 1 {
		for _, w := range wls {
			w.reduceSweeps()
		}
		if err := b.runLegs(wls); err != nil {
			return nil, err
		}
	}
	return wls, nil
}

// sampleRef takes refSamples samples of the host-speed reference. It runs
// between the program's calls, never beside them.
func (b *bench) sampleRef() {
	sp := b.spans.begin("host.reference", "", 0)
	for i := 0; i < refSamples; i++ {
		b.refNs = append(b.refNs, b.ref.sample(b.iters(refLoads)))
	}
	b.spans.end(sp)
}

// hostFactor is how much slower than nominal the host's memory system ran
// during this run: the reference's lower-quartile ns per load over
// refNominalNs. Time-based end-to-end metrics are divided by it.
func (b *bench) hostFactor() float64 {
	return summarize(b.refNs).Q1 / refNominalNs
}

// timedPass runs one untraced pass of w, charges it with the process CPU and
// allocations it used, and checks its output. A pass that fails its check
// counts every one of its targets as failed.
func (b *bench) timedPass(w *workload) error {
	root := b.spans.begin("pass", w.name, 0)
	defer b.spans.end(root)
	before := readUsage()
	sum, wall, err := b.runPass(w, telemetry{}, root)
	after := readUsage()
	if err == nil {
		if b.opt.afterPass != nil {
			b.opt.afterPass(w.path("out.jsonl"))
		}
		sp := b.spans.begin("verify", w.name, root)
		err = w.verify(sum)
		b.spans.end(sp)
	}
	if !w.settle("timed pass", err) {
		return nil
	}
	w.wall = append(w.wall, wall.Seconds())
	w.cpu = append(w.cpu, after.cpu-before.cpu)
	w.mallocs = append(w.mallocs, float64(after.mallocs-before.mallocs))
	w.gcPauseNs += after.gcPauseNs - before.gcPauseNs
	w.heapPeak = max(w.heapPeak, after.heapInuse)
	return nil
}

// sweep times every target of w through ProbeArena.ProbeTargetInto: the
// per-target latency a user pays with orchestration, rendering and sinks
// taken away. One goroutine per campaign worker sweeps the whole list at the
// same time, each through its own arena, so a probe is clocked under the
// processor sharing it meets inside a campaign — and so the figure moves
// with the host the way the passes do, not the way an otherwise idle machine
// does (see README.md, "Noise on the defining host").
func (b *bench) sweep(w *workload) {
	sp := b.spans.begin("sweep", w.name, 0)
	defer b.spans.end(sp)
	start := time.Now()
	if w.arenas == nil {
		for i := 0; i < b.workers; i++ {
			w.arenas = append(w.arenas, campaign.NewProbeArena())
		}
		w.results = make([]campaign.TargetResult, len(w.targets))
	}
	rows := make([][]int64, b.workers)
	var wg sync.WaitGroup
	for g := range rows {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ns := make([]int64, len(w.targets))
			var scratch campaign.TargetResult
			for i, t := range w.targets {
				res := &scratch
				if g == 0 {
					res = &w.results[i] // one copy is kept for the render legs
				}
				t0 := time.Now()
				w.arenas[g].ProbeTargetInto(res, t, samples, 0)
				ns[i] = time.Since(t0).Nanoseconds()
			}
			rows[g] = ns
		}(g)
	}
	wg.Wait()
	w.sweepNs = append(w.sweepNs, rows...)
	w.sweeps++
	w.sweepWall += time.Since(start)
}

// reduceSweeps takes each target's median latency over the sweeps. The
// median, not the minimum: on a shared host single-thread speed moves in
// regimes that last seconds, and a minimum reports whichever regime was
// fastest, which differs from run to run; with three or more sweeps the
// median still drops a target's one-off GC or interrupt hit, so p99 over
// targets stays the heavy target class.
func (w *workload) reduceSweeps() {
	w.latencyNs = make([]int64, len(w.targets))
	col := make([]int64, len(w.sweepNs))
	for i := range w.latencyNs {
		for s, ns := range w.sweepNs {
			col[s] = ns[i]
		}
		slices.Sort(col)
		if k := len(col); k > 0 {
			w.latencyNs[i] = (col[(k-1)/2] + col[k/2]) / 2
		}
	}
	for _, ns := range w.sweepNs {
		w.sweepP50 = append(w.sweepP50, usQuantile(ns, 0.50))
	}
}

// settle books one checked pass: its targets count as attempted, and all of
// them as failed when the pass or its output check returned err. It reports
// whether the pass may be measured.
func (w *workload) settle(kind string, err error) bool {
	w.attempted += len(w.targets)
	if err != nil {
		w.failed += len(w.targets)
		w.failures = append(w.failures, kind+": "+err.Error())
	}
	return err == nil
}
