package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/campaign/dist"
	"reorder/internal/obs"
)

// The load model every workload shares (see README.md): closed loop, one
// process, fixed deterministic work per pass.
const (
	samples = 8
	// retries exercises the retry path; backoff 0 keeps its wall-clock sleep
	// (the CLI's -backoff 50ms default) out of a CPU benchmark.
	retries = 1
	// distWorkers is the "w2" of dist-unix-w2.
	distWorkers = 2
	// resumeWindows is how many StopAfter/Resume windows one durable-resume
	// pass is cut into.
	resumeWindows = 4
	// durableCheckpointEvery is durable-resume's save cadence. The scratch
	// directory sits in the checkout, on a disk, where every save is two
	// fsyncs: at the program's default of 64 a pass is ~450 saves and 70%
	// device wait (IQR 16% on the defining host). 4096 keeps the save path
	// in every window while the pass measures the program.
	durableCheckpointEvery = 4096
)

type runKind int

const (
	kindRun     runKind = iota // campaign.Run, JSONL+CSV
	kindDurable                // campaign.Run with checkpoint, stopped and resumed
	kindDist                   // dist.Serve + in-process dist.RunWorker goroutines
)

// workloadDef is one named workload: a target cross product and the entry
// point that turns it into JSONL/CSV.
type workloadDef struct {
	name  string
	why   string
	kind  runKind
	seeds int // seed replicas per cell at -scale 1
	enum  campaign.EnumSpec
}

var workloadDefs = []workloadDef{
	{
		name: "survey-p2p", kind: kindRun, seeds: 200,
		why: "the paper's survey: every profile x impairment x test point-to-point, where scheduler, render and sink are the largest share",
	},
	{
		name: "routed-congestion", kind: kindRun, seeds: 8,
		why: "routed topologies with cross traffic: ~50x the sim events per target, so sim, tcpsender and netem queues do nearly all the work",
		enum: campaign.EnumSpec{
			Impairments: []string{"clean"},
			Topologies:  []string{"bottleneck", "parallel-x2", "diamond", "multihop"},
		},
	},
	{
		name: "adversarial-scenarios", kind: kindRun, seeds: 60,
		why: "fault schedules and middleboxes: timers mutate live elements, frames leave the zero-copy path, forged resets exercise retries",
		enum: campaign.EnumSpec{
			Impairments: []string{"clean", "swap-light"},
			Scenarios:   campaign.ScenarioNames(),
		},
	},
	{
		name: "durable-resume", kind: kindDurable, seeds: 100,
		why: "the survey list with a checkpoint, stopped at 25/50/75% and resumed: checkpoint saves, LoadCheckpoint and JSONL replay",
	},
	{
		name: "dist-unix-w2", kind: kindDist, seeds: 200,
		why: "the survey list through dist.Serve and two in-process workers over a unix socket: lease protocol, framing, re-sequencing",
	},
}

// workload is a workloadDef instantiated for one seed and scale, with its
// scratch files, its oracle and everything measured on it.
type workload struct {
	*workloadDef
	targets []campaign.Target
	fp      uint64
	dir     string
	ref     outputDigest

	setupS []float64 // wall seconds of each complete set-up

	// Untraced timed passes.
	wall      []float64 // seconds per pass
	cpu       []float64 // process CPU seconds per pass
	mallocs   []float64 // heap allocations per pass
	gcPauseNs uint64
	heapPeak  uint64
	attempted int
	failed    int
	elapsed   time.Duration
	failures  []string

	// Probe sweeps.
	arenas    []*campaign.ProbeArena // one per sweeping goroutine
	sweeps    int
	sweepNs   [][]int64 // per sweep, per target
	sweepWall time.Duration
	latencyNs []int64                 // per target, median over sweeps
	sweepP50  []float64               // per sweep, µs
	results   []campaign.TargetResult // the last sweep's results

	// Traced passes (-trace 1).
	reg         *obs.Campaign
	tracedWall  []float64
	localWall   []float64 // dist only: campaign.Run over the same list
	residenceNs []int64   // span claim -> emit, from the run trace
	wire        wireCounters
	legs        map[string]metric // per-workload layer legs
}

func (w *workload) path(name string) string { return filepath.Join(w.dir, name) }

// outputDigest is what an output check compares: the two sink files and the
// summary's accounting.
type outputDigest struct {
	JSONL  string `json:"jsonl_sha256"`
	CSV    string `json:"csv_sha256"`
	Errors int    `json:"errors"`
}

// hashFile returns the file's sha256 and its newline count.
func hashFile(path string) (sum string, lines int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	buf := make([]byte, 256<<10)
	for {
		n, rerr := f.Read(buf)
		lines += bytes.Count(buf[:n], []byte{'\n'})
		h.Write(buf[:n])
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return "", 0, rerr
		}
	}
	return hex.EncodeToString(h.Sum(nil)), lines, nil
}

// digest checks one pass's structural invariants — one JSONL line per
// target, a summary that accounts for every target — and returns the
// output's digest for comparison with the oracle.
func (w *workload) digest(sum *campaign.Summary) (outputDigest, error) {
	n := len(w.targets)
	if sum.Targets != n || sum.Measured+sum.Excluded+sum.Errors != sum.Targets {
		return outputDigest{}, fmt.Errorf("summary covers %d targets (%d measured + %d excluded + %d errors), want %d",
			sum.Targets, sum.Measured, sum.Excluded, sum.Errors, n)
	}
	d := outputDigest{Errors: sum.Errors}
	var lines int
	var err error
	if d.JSONL, lines, err = hashFile(w.path("out.jsonl")); err != nil {
		return d, err
	}
	if lines != n {
		return d, fmt.Errorf("out.jsonl has %d lines, want %d", lines, n)
	}
	if d.CSV, _, err = hashFile(w.path("out.csv")); err != nil {
		return d, err
	}
	return d, nil
}

// verify is the per-pass output check: structure, then byte identity with
// the Batch:1 reference pass.
func (w *workload) verify(sum *campaign.Summary) error {
	d, err := w.digest(sum)
	if err != nil {
		return err
	}
	if d != w.ref {
		return fmt.Errorf("output differs from the reference pass: got %+v, want %+v", d, w.ref)
	}
	return nil
}

// passConfig is the campaign configuration of one pass. The program under
// test receives only this — generated targets and knobs — never the seed
// flag or the workload's name.
func (b *bench) passConfig(w *workload) campaign.Config {
	return campaign.Config{
		Targets: w.targets, Samples: samples, Workers: b.workers,
		Retries: retries, Backoff: 0,
		OutputPath: w.path("out.jsonl"), CSVPath: w.path("out.csv"),
	}
}

// telemetry is what a traced pass attaches; the zero value is an untraced
// pass.
type telemetry struct {
	reg   *obs.Campaign
	trace *obs.Trace
	wire  *wireCounters
}

// runPass runs one complete campaign of w through the workload's entry
// point and returns its wall time as clocked around that entry point alone.
func (b *bench) runPass(w *workload, tel telemetry, parent int) (*campaign.Summary, time.Duration, error) {
	cfg := b.passConfig(w)
	cfg.Obs, cfg.Trace = tel.reg, tel.trace
	switch w.kind {
	case kindDurable:
		return b.durablePass(w, cfg, parent)
	case kindDist:
		return b.distPass(w, cfg, tel, parent)
	}
	sp := b.spans.begin("campaign.Run", w.name, parent)
	start := time.Now()
	sum, err := campaign.Run(cfg)
	wall := time.Since(start)
	b.spans.end(sp)
	return sum, wall, err
}

// durablePass runs the list as resumeWindows windows: StopAfter a quarter,
// then Resume until done. The last window's summary covers the whole list
// (replayed records re-enter the aggregator), and replayed targets are
// probed once, so a pass is len(targets) probes like any other.
func (b *bench) durablePass(w *workload, cfg campaign.Config, parent int) (*campaign.Summary, time.Duration, error) {
	cfg.CheckpointPath = w.path("out.ckpt")
	cfg.CheckpointEvery = durableCheckpointEvery
	if err := os.Remove(cfg.CheckpointPath); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	window := (len(w.targets) + resumeWindows - 1) / resumeWindows
	var sum *campaign.Summary
	start := time.Now()
	for i := 0; i < resumeWindows; i++ {
		cfg.Resume = i > 0
		cfg.StopAfter = window
		if i == resumeWindows-1 {
			cfg.StopAfter = 0
		}
		sp := b.spans.begin("campaign.Run/window", w.name, parent)
		var err error
		sum, err = campaign.Run(cfg)
		b.spans.end(sp)
		if err != nil {
			return nil, time.Since(start), fmt.Errorf("window %d: %w", i, err)
		}
	}
	return sum, time.Since(start), nil
}

// distPass serves the list to distWorkers in-process workers over a unix
// socket in the scratch directory. In-process workers keep fork/exec out of
// the figure. Each worker gets an already dialled connection, which means
// one session and no reconnects: a worker that joins after a short campaign
// has finished must fail fast, not retry a closed listener.
func (b *bench) distPass(w *workload, cfg campaign.Config, tel telemetry, parent int) (*campaign.Summary, time.Duration, error) {
	sock := w.path("d.sock")
	if err := os.Remove(sock); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	ln, err := dist.Listen("unix:" + sock)
	if err != nil {
		return nil, 0, err
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, distWorkers)
	start := time.Now()
	for i := 0; i < distWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := b.spans.begin("dist.RunWorker", w.name, parent)
			defer b.spans.end(sp)
			conn, err := dist.Dial("unix:" + sock)
			if err != nil {
				workerErrs[i] = err
				return
			}
			wc := dist.WorkerConfig{Conn: conn, Targets: w.targets, Samples: samples}
			if tel.wire != nil {
				wc.Conn = &countingConn{Conn: conn, c: tel.wire}
			}
			if tel.reg != nil {
				wc.Obs = obs.NewCampaign(1)
			}
			workerErrs[i] = dist.RunWorker(wc)
		}(i)
	}
	sp := b.spans.begin("dist.Serve", w.name, parent)
	sum, err := dist.Serve(dist.Config{Campaign: cfg, Listener: ln, ExpectWorkers: distWorkers})
	wall := time.Since(start)
	b.spans.end(sp)
	wg.Wait()
	for i, werr := range workerErrs {
		// A worker that never got its handshake in before a tiny campaign
		// finished is the coordinator's to absorb, and it did if Serve
		// succeeded and the bytes check out; say so and carry on.
		if werr != nil && err == nil {
			fmt.Fprintf(b.stderr, "benchmark: %s: worker %d: %v\n", w.name, i, werr)
		}
	}
	return sum, wall, err
}
