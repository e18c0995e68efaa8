// Command campaign runs a production-scale measurement campaign: the four
// techniques against an enumerated (or file-loaded) population of
// thousands of simulated targets, probed by a bounded worker pool with
// retry, rate limiting, streaming JSONL/CSV output and checkpoint/resume.
// The default enumeration — every host profile × every path impairment ×
// every test × 7 seeds — is a 2016-target survey; results for a fixed
// -seed are byte-reproducible at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/campaign/dist"
	"reorder/internal/cli"
	"reorder/internal/experiments"
	"reorder/internal/faultnet"
	"reorder/internal/obs"
)

func main() { cli.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	var (
		profiles      = fs.String("profiles", "", "comma-separated host profiles (default: all)")
		impairments   = fs.String("impairments", "", "comma-separated path impairments (default: all)")
		tests         = fs.String("tests", "", "comma-separated techniques (default: single,dual,syn,transfer)")
		seeds         = fs.Int("seeds", 0, "seed replicas per profile×impairment×test combination (0 = auto: 7, or 2 with -quick)")
		baseSeed      = fs.Uint64("seed", 719, "base seed; fixes every scenario draw in the campaign")
		topologies    = fs.String("topology", "", "comma-separated topology graphs from the catalog (\"p2p\" is the point-to-point control); adds a topology dimension to the enumeration")
		scenarioList  = fs.String("scenario", "", "comma-separated fault schedules from the scenario catalog; adds a time-varying/adversarial dimension to the enumeration")
		congestion    = fs.Bool("congestion", false, "run the congestion experiment instead of a raw campaign: clean-path probes over routed topologies, techniques cross-checked for agreement")
		chaos         = fs.Bool("chaos", false, "run the chaos experiment instead of a raw campaign: probes under every fault schedule, techniques cross-checked for agreement")
		listCatalogs  = fs.Bool("list", false, "print the profile, impairment, topology and scenario catalogs and exit")
		targetsPath   = fs.String("targets", "", "targets file (profile impairment test seed [topology [scenario]] per line); overrides enumeration")
		samples       = fs.Int("samples", 8, "samples per measurement")
		workers       = fs.Int("workers", 16, "concurrent probe workers")
		retries       = fs.Int("retries", 1, "extra attempts for a failed target")
		backoff       = fs.Duration("backoff", 50*time.Millisecond, "delay before first retry (doubles per attempt)")
		rate          = fs.Float64("rate", 0, "max probe launches per second (0 = unlimited)")
		window        = fs.Int("window", 0, "max targets probed ahead of the in-order emit frontier; bounds re-sequencing memory (0 = adaptive from observed completion spread, capped at max(4×workers, 64))")
		batch         = fs.Int("batch", 0, "targets per dispatch span: workers claim contiguous runs of this many targets and results flush to the sinks in whole pre-encoded batches (0 = adaptive; output is byte-identical at any batch size)")
		out           = fs.String("out", "", "stream per-target results as JSONL to this path")
		csvPath       = fs.String("csv", "", "stream per-target results as CSV to this path")
		ckpt          = fs.String("checkpoint", "", "checkpoint file enabling -resume")
		resume        = fs.Bool("resume", false, "resume an interrupted campaign from -checkpoint")
		forceRestart  = fs.Bool("force-restart", false, "archive existing -out/-csv/-checkpoint files (to <path>.oldN) and start fresh; the escape hatch when -resume refuses a changed config")
		stopAfter     = fs.Int("stop-after", 0, "stop cleanly after this many results (0 = run to completion)")
		listTargets   = fs.Bool("list-targets", false, "print the enumerated target list and exit")
		progress      = fs.Duration("progress", 0, "print progress to stderr at this interval, with cumulative and EWMA instantaneous rates (0 = off)")
		quick         = fs.Bool("quick", false, "small campaign (2 seeds, single+syn) for smoke runs")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this path")
		memProfile    = fs.String("memprofile", "", "write an allocation profile (taken at completion) to this path")
		listen        = fs.String("listen", "", "serve live telemetry over HTTP on this address (/metrics, /campaign/progress, /debug/pprof); \":0\" picks a free port")
		tracePath     = fs.String("trace", "", "write a structured JSONL run trace (span lifecycle, retries, checkpoints) to this path")
		statsReport   = fs.Bool("stats", false, "append a telemetry report (scheduler, probe latency, sim, netem, sinks) to the summary")
		workerMode    = fs.Bool("worker", false, "run as a distributed campaign worker: probe spans leased by the coordinator at -connect (enumeration flags must match the coordinator's)")
		connect       = fs.String("connect", "", "coordinator address for -worker (host:port, or a unix socket path)")
		coordinate    = fs.String("coordinate", "", "run as a distributed campaign coordinator listening on this address; workers connect with -worker -connect")
		spawnN        = fs.Int("spawn", 0, "coordinate and fork this many local worker processes over an auto-created unix socket (combine with -coordinate to also accept remote workers)")
		expectN       = fs.Int("expect", 0, "worker processes expected to connect; sizes the per-worker rate-budget split and dispatch window (default: -spawn count, else 1)")
		leaseTimeout  = fs.Duration("lease-timeout", 0, "re-issue a silent worker's leased spans after this long (default 15s)")
		maxRespawn    = fs.Int("max-respawn", 2, "total respawns of crashed -spawn workers before the coordinator drains (0 = never respawn)")
		reconnBackoff = fs.Duration("reconnect-backoff", 100*time.Millisecond, "worker base delay between reconnect attempts after a lost coordinator connection (doubles with jitter per consecutive failure)")
		faultSeed     = fs.Uint64("faultnet", 0, "inject seeded control-plane faults (resets, stalls, dup/truncated lines, accept failures) into coordinator connections — chaos rehearsal for the dist plane; 0 = off")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := validateFlags(fs, *scenarioList, *connect, *workerMode, *spawnN, *coordinate, *maxRespawn, *faultSeed); err != nil {
		return err
	}
	if *listCatalogs {
		printCatalogs(stdout)
		return nil
	}

	// Profiling hooks, so field campaigns can be profiled the way the
	// benchmarks were (go tool pprof <binary> <profile>).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *congestion {
		rep, err := experiments.RunCongestion(experiments.CongestionConfig{
			Topologies: splitList(*topologies),
			Replicas:   *seeds,
			Samples:    *samples,
			Workers:    *workers,
			Seed:       *baseSeed,
		})
		if err != nil {
			return err
		}
		rep.WriteText(stdout)
		return nil
	}
	if *chaos {
		rep, err := experiments.RunChaos(experiments.ChaosConfig{
			Scenarios: splitList(*scenarioList),
			Replicas:  *seeds,
			Samples:   *samples,
			Workers:   *workers,
			Seed:      *baseSeed,
		})
		if err != nil {
			return err
		}
		rep.WriteText(stdout)
		return nil
	}

	var targets []campaign.Target
	if *targetsPath != "" {
		f, err := os.Open(*targetsPath)
		if err != nil {
			return err
		}
		targets, err = campaign.LoadTargets(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		spec := campaign.EnumSpec{
			Profiles:    splitList(*profiles),
			Impairments: splitList(*impairments),
			Tests:       splitList(*tests),
			Seeds:       *seeds,
			BaseSeed:    *baseSeed,
			Topologies:  splitList(*topologies),
			Scenarios:   splitList(*scenarioList),
		}
		// -quick shrinks only the dimensions the user did not set
		// explicitly, so e.g. `-quick -seeds 5` keeps 5 seed replicas.
		if spec.Seeds == 0 {
			spec.Seeds = 7
			if *quick {
				spec.Seeds = 2
			}
		}
		if *quick && spec.Tests == nil {
			spec.Tests = []string{"single", "syn"}
		}
		var err error
		targets, err = campaign.Enumerate(spec)
		if err != nil {
			return err
		}
	}
	if *listTargets {
		return campaign.WriteTargets(stdout, targets)
	}

	if *workerMode {
		// Ctrl+C reaches the whole process group; the coordinator owns the
		// drain, so the worker ignores the interrupt and finishes its
		// in-flight span instead of dying with the lease.
		signal.Ignore(os.Interrupt)
		return dist.RunWorker(dist.WorkerConfig{
			Connect:          *connect,
			Targets:          targets,
			Samples:          *samples,
			Obs:              obs.NewCampaign(1),
			ReconnectBackoff: *reconnBackoff,
		})
	}
	distMode := *coordinate != "" || *spawnN > 0

	if *forceRestart {
		if *resume {
			return fmt.Errorf("campaign: -force-restart and -resume are mutually exclusive (restart archives the old state; resume continues it)")
		}
		for _, p := range []string{*ckpt, *out, *csvPath} {
			if p == "" {
				continue
			}
			archived, err := archiveFile(p)
			if err != nil {
				return err
			}
			if archived != "" {
				fmt.Fprintf(os.Stderr, "campaign: archived %s -> %s\n", p, archived)
			}
		}
	}

	cfg := campaign.Config{
		Targets:        targets,
		Samples:        *samples,
		Workers:        *workers,
		Retries:        *retries,
		Backoff:        *backoff,
		RatePerSec:     *rate,
		Window:         *window,
		Batch:          *batch,
		OutputPath:     *out,
		CSVPath:        *csvPath,
		CheckpointPath: *ckpt,
		Resume:         *resume,
		StopAfter:      *stopAfter,
	}
	// The telemetry registry exists only when a surface asked for it —
	// a plain run keeps the zero-instrumentation fast path.
	var reg *obs.Campaign
	if *listen != "" || *tracePath != "" || *statsReport || *progress > 0 {
		reg = obs.NewCampaign(cfg.Workers)
		cfg.Obs = reg
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: telemetry on http://%s/metrics\n", srv.Addr())
	}
	var trace *obs.Trace
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		trace = obs.NewTrace(f)
		cfg.Trace = trace
	}
	if *progress > 0 {
		// Progress callbacks are span-granular and serial; the interval
		// gates printing. The instantaneous rate is the registry's EWMA,
		// the cumulative average is computed from the run clock.
		interval := *progress
		began := time.Now()
		var lastPrint time.Time
		cfg.Progress = func(done, total int) {
			now := time.Now()
			if now.Sub(lastPrint) < interval && done != total {
				return
			}
			lastPrint = now
			_, _, inst := reg.Progress()
			avg := float64(done) / now.Sub(began).Seconds()
			fmt.Fprintf(os.Stderr, "campaign: %d/%d targets (avg %.0f/s, inst %.0f/s)\n",
				done, total, avg, inst)
		}
	}

	// First signal: quiesce — stop dispatching, drain in-flight spans,
	// checkpoint the drain point, report the partial summary. Second
	// signal: abort immediately.
	interrupt := make(chan struct{})
	runDone := make(chan struct{})
	defer close(runDone)
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case <-sigCh:
		case <-runDone:
			return
		}
		fmt.Fprintf(os.Stderr, "campaign: signal received — draining in-flight spans (interrupt again to abort)\n")
		close(interrupt)
		select {
		case <-sigCh:
			fmt.Fprintln(os.Stderr, "campaign: aborted")
			os.Exit(1)
		case <-runDone:
		}
	}()
	cfg.Interrupt = interrupt

	began := time.Now()
	var sum *campaign.Summary
	var err error
	workersDesc := fmt.Sprintf("%d workers", cfg.Workers)
	if distMode {
		expect := *expectN
		if expect <= 0 {
			expect = *spawnN
		}
		if expect <= 0 {
			expect = 1
		}
		// Workers re-enumerate the target list from their own flags (the
		// fingerprint handshake proves both sides agree), so the child argv
		// carries exactly the enumeration knobs — never the coordinator-owned
		// sink, checkpoint or schedule flags.
		var childArgs []string
		if *targetsPath != "" {
			childArgs = append(childArgs, "-targets", *targetsPath)
		} else {
			if *profiles != "" {
				childArgs = append(childArgs, "-profiles", *profiles)
			}
			if *impairments != "" {
				childArgs = append(childArgs, "-impairments", *impairments)
			}
			if *tests != "" {
				childArgs = append(childArgs, "-tests", *tests)
			}
			if *seeds != 0 {
				childArgs = append(childArgs, "-seeds", strconv.Itoa(*seeds))
			}
			childArgs = append(childArgs, "-seed", strconv.FormatUint(*baseSeed, 10))
			if *topologies != "" {
				childArgs = append(childArgs, "-topology", *topologies)
			}
			if *scenarioList != "" {
				childArgs = append(childArgs, "-scenario", *scenarioList)
			}
			if *quick {
				childArgs = append(childArgs, "-quick")
			}
		}
		childArgs = append(childArgs, "-samples", strconv.Itoa(*samples))
		childArgs = append(childArgs, "-reconnect-backoff", reconnBackoff.String())
		sum, err = runCoordinator(cfg, *coordinate, *spawnN, expect, *batch, *window, *leaseTimeout, *maxRespawn, *faultSeed, childArgs)
		workersDesc = fmt.Sprintf("%d worker procs expected", expect)
	} else {
		sum, err = campaign.Run(cfg)
	}
	if cerr := trace.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// The summary itself is deterministic; throughput goes to stderr so
	// stdout stays byte-reproducible for a fixed seed.
	elapsed := time.Since(began)
	fmt.Fprintf(os.Stderr, "campaign: %d targets in %v (%.0f targets/s, %s)\n",
		sum.Targets, elapsed.Round(time.Millisecond), float64(sum.Targets)/elapsed.Seconds(), workersDesc)
	sum.WriteText(stdout)
	if *statsReport {
		// Opt-in: the telemetry block carries wall-clock timings, so the
		// default stdout stays byte-reproducible for a fixed seed.
		reg.Snapshot().WriteText(stdout)
	}
	return nil
}

// runCoordinator runs the distributed-campaign coordinator: listen (on an
// auto-created unix socket when no address was given), fork local workers
// under a respawning supervisor when asked, serve the lease protocol, and
// reap the children. Worker failures after a successful run are advisory —
// their leases were re-issued and the output is complete. Exhausting the
// respawn budget folds into the ordinary interrupt path: the coordinator
// drains, checkpoints, and the run resumes later.
func runCoordinator(cfg campaign.Config, addr string, spawnN, expect, spanSize, window int,
	leaseTimeout time.Duration, maxRespawn int, faultSeed uint64, childArgs []string) (*campaign.Summary, error) {
	if addr == "" {
		dir, err := os.MkdirTemp("", "campaign-dist-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		addr = filepath.Join(dir, "coord.sock")
	}
	ln, err := dist.Listen(addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "campaign: coordinating on %s\n", addr)
	if faultSeed != 0 {
		// Chaos rehearsal: every worker connection runs through the seeded
		// fault injector. The self-healing machinery (reconnects, lease
		// re-issue, respawn) must still produce byte-identical output.
		ln = faultnet.Wrap(ln, faultnet.Chaos(faultSeed))
		fmt.Fprintf(os.Stderr, "campaign: faultnet enabled (seed %d)\n", faultSeed)
	}
	var sup *dist.Supervisor
	if spawnN > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := append([]string{"-worker", "-connect", addr}, childArgs...)
		sup, err = dist.Supervise(spawnN, exe, args, maxRespawn, os.Stderr, cfg.Obs)
		if err != nil {
			return nil, err
		}
		// A spent respawn budget means the fleet cannot finish; merge it
		// into the interrupt channel so Serve drains and checkpoints
		// instead of waiting forever for dead workers.
		orig := cfg.Interrupt
		merged := make(chan struct{})
		stopMerge := make(chan struct{})
		defer close(stopMerge)
		go func() {
			select {
			case <-orig:
			case <-sup.Exhausted():
				fmt.Fprintln(os.Stderr, "campaign: worker respawn budget exhausted — draining")
			case <-stopMerge:
				return
			}
			close(merged)
		}()
		cfg.Interrupt = merged
	}
	sum, err := dist.Serve(dist.Config{
		Campaign:      cfg,
		Listener:      ln,
		SpanSize:      spanSize,
		Window:        window,
		LeaseTimeout:  leaseTimeout,
		ExpectWorkers: expect,
		Log:           os.Stderr,
	})
	if sup != nil {
		if err != nil {
			// A failed serve may leave children blocked on a dead socket.
			sup.Kill()
		}
		if werr := sup.Wait(2 * time.Second); werr != nil && err == nil {
			fmt.Fprintf(os.Stderr, "campaign: %v (its leases were re-issued; output is complete)\n", werr)
		}
	}
	return sum, err
}

// archiveFile moves path aside to the first free <path>.oldN name, so a
// forced restart preserves the previous campaign's output instead of
// truncating it. It returns the archive name, or "" if path did not exist.
func archiveFile(path string) (string, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return "", nil
	} else if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		cand := fmt.Sprintf("%s.old%d", path, n)
		if _, err := os.Stat(cand); os.IsNotExist(err) {
			return cand, os.Rename(path, cand)
		} else if err != nil {
			return "", err
		}
	}
}

// validateFlags rejects contradictory or unknown flag values up front, with
// one-line errors, before any targets are enumerated or files touched.
func validateFlags(fs *flag.FlagSet, scenarios, connect string, worker bool, spawnN int, coordinate string,
	maxRespawn int, faultSeed uint64) error {
	var badLease, badReconn bool
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "lease-timeout":
			if d, err := time.ParseDuration(f.Value.String()); err == nil && d <= 0 {
				badLease = true
			}
		case "reconnect-backoff":
			if d, err := time.ParseDuration(f.Value.String()); err == nil && d <= 0 {
				badReconn = true
			}
		}
	})
	if badLease {
		return fmt.Errorf("campaign: -lease-timeout must be positive (omit it for the 15s default)")
	}
	if badReconn {
		return fmt.Errorf("campaign: -reconnect-backoff must be positive (omit it for the 100ms default)")
	}
	if maxRespawn < 0 {
		return fmt.Errorf("campaign: -max-respawn must be non-negative")
	}
	if faultSeed != 0 && coordinate == "" && spawnN == 0 {
		return fmt.Errorf("campaign: -faultnet only applies to a coordinator (-coordinate or -spawn)")
	}
	if spawnN < 0 {
		return fmt.Errorf("campaign: -spawn must be non-negative")
	}
	if spawnN > 0 && connect != "" {
		return fmt.Errorf("campaign: -spawn (coordinate and fork workers) and -connect (be a worker) are mutually exclusive")
	}
	if worker && (coordinate != "" || spawnN > 0) {
		return fmt.Errorf("campaign: -worker is mutually exclusive with -coordinate/-spawn")
	}
	if connect != "" && !worker {
		return fmt.Errorf("campaign: -connect requires -worker")
	}
	if worker && connect == "" {
		return fmt.Errorf("campaign: -worker requires -connect")
	}
	for _, s := range splitList(scenarios) {
		if !knownScenario(s) {
			return fmt.Errorf("campaign: unknown scenario %q (see -list for the catalog)", s)
		}
	}
	return nil
}

// knownScenario reports catalog membership; "" is the static control.
func knownScenario(name string) bool {
	if name == "" {
		return true
	}
	for _, s := range campaign.ScenarioNames() {
		if s == name {
			return true
		}
	}
	return false
}

// printCatalogs lists every enumerable dimension, one catalog per block.
func printCatalogs(w io.Writer) {
	block := func(title string, names []string) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, n := range names {
			fmt.Fprintf(w, "  %s\n", n)
		}
	}
	block("profiles", campaign.Profiles())
	block("impairments", campaign.ImpairmentNames())
	block("topologies", campaign.TopologyNames())
	block("scenarios", campaign.ScenarioNames())
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
