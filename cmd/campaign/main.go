// Command campaign runs production-scale measurement campaigns: the four
// techniques against an enumerated (or file-loaded) population of thousands
// of simulated targets, one command per mode (see commands). Each command's
// flag set is composed from the groups below and holds only the flags that
// command reads, so a combination that makes no sense is "flag provided but
// not defined", not a run-time check. The default enumeration — every host
// profile × every path impairment × every test × 7 seeds — is a 2016-target
// survey; results for a fixed -seed are byte-reproducible at any worker
// count, under run or serve.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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

var commands = []cli.Command{
	{Name: "run", Summary: "probe the target list in this process: worker pool, retry, JSONL/CSV, checkpoint/resume", Setup: setupRun},
	{Name: "serve", Summary: "the same campaign, probed by worker processes (-coordinate addr and/or -spawn n)", Setup: setupServe},
	{Name: "worker", Summary: "probe the spans leased by the serve at -connect", Setup: setupWorker},
	{Name: "congestion", Summary: "experiment: clean-path probes over routed topologies, techniques cross-checked",
		Setup: setupPaired("topology", "topology graphs from the catalog (default: all, \"p2p\" control included)",
			func(p *pairedFlags) (*experiments.PairedReport, error) {
				return experiments.RunCongestion(experiments.CongestionConfig{
					Topologies: p.list, Replicas: p.seeds, Samples: p.samples, Workers: p.workers, Seed: p.baseSeed})
			})},
	{Name: "chaos", Summary: "experiment: probes under every fault schedule, techniques cross-checked",
		Setup: setupPaired("scenario", "fault schedules from the catalog (default: all; the static control always rides along)",
			func(p *pairedFlags) (*experiments.PairedReport, error) {
				return experiments.RunChaos(experiments.ChaosConfig{
					Scenarios: p.list, Replicas: p.seeds, Samples: p.samples, Workers: p.workers, Seed: p.baseSeed})
			})},
	{Name: "catalogs", Summary: "print the profile, impairment, topology and scenario catalogs", Setup: setupCatalogs},
	{Name: "targets", Summary: "print the enumerated target list (the -targets file format)", Setup: setupTargets},
}

var run = cli.Dispatch("campaign", commands)

func main() { cli.Main(run) }

// positiveDuration is a duration flag that refuses zero and negative values.
type positiveDuration time.Duration

func (d *positiveDuration) String() string { return time.Duration(*d).String() }
func (d *positiveDuration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err == nil && v <= 0 {
		err = errors.New("must be positive (omit it for the default)")
	}
	*d = positiveDuration(v)
	return err
}

// enumFlags say what the target list is (run, serve, worker, targets); the
// dimension flags bind straight to the EnumSpec they fill.
type enumFlags struct {
	spec  campaign.EnumSpec
	path  string
	quick bool
}

func (e *enumFlags) define(fs *flag.FlagSet) {
	fs.Var((*cli.List)(&e.spec.Profiles), "profiles", "comma-separated host profiles (default: all)")
	fs.Var((*cli.List)(&e.spec.Impairments), "impairments", "comma-separated path impairments (default: all)")
	fs.Var((*cli.List)(&e.spec.Tests), "tests", "comma-separated techniques (default: single,dual,syn,transfer)")
	fs.IntVar(&e.spec.Seeds, "seeds", 0, "seed replicas per profile×impairment×test combination (0 = auto: 7, or 2 with -quick)")
	fs.Uint64Var(&e.spec.BaseSeed, "seed", 719, "base seed; fixes every scenario draw in the campaign")
	fs.Var((*cli.List)(&e.spec.Topologies), "topology", "comma-separated topology graphs from the catalog (\"p2p\" is the point-to-point control); adds a topology dimension to the enumeration")
	fs.Var((*cli.List)(&e.spec.Scenarios), "scenario", "comma-separated fault schedules from the scenario catalog; adds a time-varying/adversarial dimension to the enumeration")
	fs.StringVar(&e.path, "targets", "", "targets file (profile impairment test seed [topology [scenario]] per line); overrides enumeration")
	fs.BoolVar(&e.quick, "quick", false, "small campaign (2 seeds, single+syn) for smoke runs")
}

// targets loads the targets file or expands the enumeration.
func (e *enumFlags) targets() ([]campaign.Target, error) {
	if e.path != "" {
		f, err := os.Open(e.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return campaign.LoadTargets(f)
	}
	// -quick shrinks only the dimensions the user did not set
	// explicitly, so e.g. `-quick -seeds 5` keeps 5 seed replicas.
	spec := e.spec
	if spec.Seeds == 0 {
		spec.Seeds = 7
		if e.quick {
			spec.Seeds = 2
		}
	}
	if e.quick && len(spec.Tests) == 0 {
		spec.Tests = []string{"single", "syn"}
	}
	return campaign.Enumerate(spec)
}

// samplesVar defines -samples, which with the target list makes up the
// fingerprint a serve and its workers must agree on.
func samplesVar(fs *flag.FlagSet, n *int) {
	fs.IntVar(n, "samples", 8, "samples per measurement")
}

// profileFlags let field campaigns be profiled the way the benchmarks were
// (go tool pprof <binary> <profile>).
type profileFlags struct{ cpu, mem string }

func (p *profileFlags) define(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the command to this path")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile (taken at completion) to this path")
}

// around runs body under the requested profiles.
func (p *profileFlags) around(body func() error) error {
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if p.mem != "" {
		f, err := os.Create(p.mem)
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
	return body()
}

// campaignFlags is the campaign itself — everything run and serve share;
// the two differ only in who probes. Pace (retries and dispatch), sink and
// checkpoint flags bind to the Config they fill.
type campaignFlags struct {
	enumFlags
	profileFlags
	cfg          campaign.Config
	forceRestart bool

	// Telemetry surfaces; the registry behind them exists only on request.
	progress      time.Duration
	listen, trace string
	stats         bool
}

func (c *campaignFlags) define(fs *flag.FlagSet) {
	c.enumFlags.define(fs)
	samplesVar(fs, &c.cfg.Samples)
	c.profileFlags.define(fs)
	fs.IntVar(&c.cfg.Retries, "retries", 1, "extra attempts for a failed target")
	fs.IntVar(&c.cfg.Window, "window", 0, "max targets probed (serve: leased) ahead of the in-order emit frontier; bounds re-sequencing memory and caps -batch at window/workers (0 = max(64, 4×batch×workers); serve: workers is -expect)")
	fs.IntVar(&c.cfg.Batch, "batch", 0, "targets per dispatch span (serve: per lease); results flush to the sinks in whole pre-encoded batches (0 = min(32, targets/(2×workers)); serve: min(512, targets/(2×expect)); output is byte-identical at any batch size)")
	fs.StringVar(&c.cfg.OutputPath, "out", "", "stream per-target results as JSONL to this path")
	fs.StringVar(&c.cfg.CSVPath, "csv", "", "stream per-target results as CSV to this path")
	fs.StringVar(&c.cfg.CheckpointPath, "checkpoint", "", "checkpoint file enabling -resume")
	fs.BoolVar(&c.cfg.Resume, "resume", false, "resume an interrupted campaign from -checkpoint (run and serve resume each other's)")
	fs.BoolVar(&c.forceRestart, "force-restart", false, "archive existing -out/-csv/-checkpoint files (to <path>.oldN) and start fresh; the escape hatch when -resume refuses a changed config")
	fs.IntVar(&c.cfg.StopAfter, "stop-after", 0, "stop cleanly after this many results (0 = run to completion)")
	fs.DurationVar(&c.progress, "progress", 0, "print progress to stderr at this interval, with cumulative and EWMA instantaneous rates (0 = off)")
	fs.StringVar(&c.listen, "listen", "", "serve live telemetry over HTTP on this address (/metrics, /campaign/progress, /debug/pprof); \":0\" picks a free port")
	fs.StringVar(&c.trace, "trace", "", "write a structured JSONL run trace (span lifecycle, retries, checkpoints) to this path")
	fs.BoolVar(&c.stats, "stats", false, "append a telemetry report (scheduler, probe latency, sim, netem, sinks) to the summary")
}

func setupRun(fs *flag.FlagSet) func(io.Writer) error {
	var c campaignFlags
	c.define(fs)
	workers := fs.Int("workers", 16, "concurrent probe workers")
	return func(stdout io.Writer) error {
		return c.execute(stdout, *workers, fmt.Sprintf("%d workers", *workers), campaign.Run)
	}
}

// distFlags are the coordinator's side of the distributed plane.
type distFlags struct {
	addr                           string
	spawn, maxRespawn              uint
	expect                         int
	leaseTimeout, reconnectBackoff time.Duration
	faultSeed                      uint64
}

func (d *distFlags) define(fs *flag.FlagSet) {
	fs.StringVar(&d.addr, "coordinate", "", "listen for workers on this address (host:port, or a unix socket path); they connect with `campaign worker -connect`")
	fs.UintVar(&d.spawn, "spawn", 0, "fork this many local worker processes over an auto-created unix socket (combine with -coordinate to also accept remote workers)")
	fs.IntVar(&d.expect, "expect", 0, "worker processes expected to connect; sizes the default lease and dispatch window (default: -spawn count, else 1)")
	d.leaseTimeout = 15 * time.Second
	fs.Var((*positiveDuration)(&d.leaseTimeout), "lease-timeout", "re-issue a silent worker's leased spans after this long")
	fs.UintVar(&d.maxRespawn, "max-respawn", 2, "total respawns of crashed -spawn workers before the coordinator drains (0 = never respawn)")
	reconnectBackoffVar(fs, &d.reconnectBackoff)
	fs.Uint64Var(&d.faultSeed, "faultnet", 0, "inject seeded control-plane faults (resets, stalls, dup/truncated lines, accept failures) into worker connections — chaos rehearsal for the dist plane; 0 = off")
}

// reconnectBackoffVar is the one flag serve and worker both own: serve
// reads it only to forward it to the workers it spawns.
func reconnectBackoffVar(fs *flag.FlagSet, d *time.Duration) {
	*d = 100 * time.Millisecond
	fs.Var((*positiveDuration)(d), "reconnect-backoff", "worker base delay between reconnect attempts after a lost coordinator connection (doubles with jitter per consecutive failure)")
}

func setupServe(fs *flag.FlagSet) func(io.Writer) error {
	var c campaignFlags
	var d distFlags
	c.define(fs)
	d.define(fs)
	return func(stdout io.Writer) error {
		if d.addr == "" && d.spawn == 0 {
			return fmt.Errorf("campaign serve: needs workers: -coordinate addr (they connect) and/or -spawn n (forks them)")
		}
		expect := d.expect
		if expect <= 0 {
			expect = max(int(d.spawn), 1)
		}
		return c.execute(stdout, expect, fmt.Sprintf("%d worker procs expected", expect),
			func(cfg campaign.Config) (*campaign.Summary, error) { return d.serve(cfg, expect, fs) })
	}
}

func setupWorker(fs *flag.FlagSet) func(io.Writer) error {
	var e enumFlags
	e.define(fs)
	var cfg dist.WorkerConfig
	samplesVar(fs, &cfg.Samples)
	fs.StringVar(&cfg.Connect, "connect", "", "coordinator address (host:port, or a unix socket path)")
	reconnectBackoffVar(fs, &cfg.ReconnectBackoff)
	return func(io.Writer) (err error) {
		if cfg.Connect == "" {
			return fmt.Errorf("campaign worker: -connect is required (the address of a `campaign serve`)")
		}
		if cfg.Targets, err = e.targets(); err != nil {
			return err
		}
		// Ctrl+C reaches the whole process group; the coordinator owns the
		// drain, so the worker ignores the interrupt and finishes its
		// in-flight span instead of dying with the lease.
		signal.Ignore(os.Interrupt)
		cfg.Obs = obs.NewCampaign(1)
		return dist.RunWorker(cfg)
	}
}

// workerArgv derives a spawned worker's argv from the flags set on serve:
// exactly those the worker command also defines, so the child enumerates
// the same target list (the fingerprint handshake proves it) and a flag
// added to a shared group is forwarded by construction.
func workerArgv(serve *flag.FlagSet, addr string) []string {
	worker := flag.NewFlagSet("worker", flag.ContinueOnError)
	setupWorker(worker)
	argv := []string{"worker", "-connect=" + addr}
	serve.Visit(func(f *flag.Flag) {
		if worker.Lookup(f.Name) != nil {
			argv = append(argv, "-"+f.Name+"="+f.Value.String())
		}
	})
	return argv
}

// pairedFlags are the two agreement experiments' shared knobs.
type pairedFlags struct {
	list                    cli.List
	seeds, samples, workers int
	baseSeed                uint64
	profileFlags
}

// setupPaired is both experiments' setup: they differ in the dimension
// they sweep (the -dim list) and the experiment that sweeps it.
func setupPaired(dim, usage string, experiment func(p *pairedFlags) (*experiments.PairedReport, error)) func(*flag.FlagSet) func(io.Writer) error {
	return func(fs *flag.FlagSet) func(io.Writer) error {
		var p pairedFlags
		fs.Var(&p.list, dim, "comma-separated "+usage)
		fs.IntVar(&p.seeds, "seeds", 0, "seed replicas per cell (0 = the experiment's default, 8)")
		fs.Uint64Var(&p.baseSeed, "seed", 719, "base seed; fixes every scenario draw in the experiment")
		samplesVar(fs, &p.samples)
		fs.IntVar(&p.workers, "workers", 16, "concurrent probe workers")
		p.profileFlags.define(fs)
		return func(stdout io.Writer) error {
			return p.around(func() error {
				rep, err := experiment(&p)
				if err != nil {
					return err
				}
				rep.WriteText(stdout)
				return nil
			})
		}
	}
}

// setupCatalogs lists every enumerable dimension, one catalog per block.
func setupCatalogs(*flag.FlagSet) func(io.Writer) error {
	return func(stdout io.Writer) error {
		for _, c := range []struct {
			title string
			names []string
		}{{"profiles", campaign.Profiles()}, {"impairments", campaign.ImpairmentNames()},
			{"topologies", campaign.TopologyNames()}, {"scenarios", campaign.ScenarioNames()}} {
			fmt.Fprintf(stdout, "%s:\n  %s\n", c.title, strings.Join(c.names, "\n  "))
		}
		return nil
	}
}

func setupTargets(fs *flag.FlagSet) func(io.Writer) error {
	var e enumFlags
	e.define(fs)
	return func(stdout io.Writer) error {
		targets, err := e.targets()
		if err != nil {
			return err
		}
		return campaign.WriteTargets(stdout, targets)
	}
}

// execute runs the campaign through engine — campaign.Run or the coordinator
// — with what the two share around it: profiles, the target list, a forced
// restart's archiving, telemetry, the two-stage interrupt, the summary.
// workers sizes the telemetry registry and, under run, the pool; desc
// describes them in the throughput line.
func (c *campaignFlags) execute(stdout io.Writer, workers int, desc string,
	engine func(campaign.Config) (*campaign.Summary, error)) error {
	if c.forceRestart && c.cfg.Resume {
		return fmt.Errorf("campaign: -force-restart and -resume are mutually exclusive (restart archives the old state; resume continues it)")
	}
	return c.around(func() error { return c.executeProfiled(stdout, workers, desc, engine) })
}

func (c *campaignFlags) executeProfiled(stdout io.Writer, workers int, desc string,
	engine func(campaign.Config) (*campaign.Summary, error)) error {
	cfg := c.cfg
	cfg.Workers = workers
	var err error
	if cfg.Targets, err = c.targets(); err != nil {
		return err
	}
	if c.forceRestart {
		for _, p := range []string{cfg.CheckpointPath, cfg.OutputPath, cfg.CSVPath} {
			if err := archiveFile(p); err != nil {
				return err
			}
		}
	}

	// The telemetry registry exists only when a surface asked for it —
	// a plain run keeps the zero-instrumentation fast path.
	if c.listen != "" || c.trace != "" || c.stats || c.progress > 0 {
		cfg.Obs = obs.NewCampaign(workers)
	}
	if c.listen != "" {
		srv, err := obs.Serve(c.listen, cfg.Obs)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: telemetry on http://%s/metrics\n", srv.Addr())
	}
	if c.trace != "" {
		f, err := os.Create(c.trace)
		if err != nil {
			return err
		}
		cfg.Trace = obs.NewTrace(f)
	}
	if c.progress > 0 {
		// Progress callbacks are span-granular and serial; the interval
		// gates printing. The instantaneous rate is the registry's EWMA,
		// the cumulative average is computed from the run clock.
		began := time.Now()
		var lastPrint time.Time
		cfg.Progress = func(done, total int) {
			now := time.Now()
			if now.Sub(lastPrint) < c.progress && done != total {
				return
			}
			lastPrint = now
			_, _, inst := cfg.Obs.Progress()
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
	sum, err := engine(cfg)
	if cerr := cfg.Trace.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// The summary itself is deterministic; throughput goes to stderr so
	// stdout stays byte-reproducible for a fixed seed.
	elapsed := time.Since(began)
	fmt.Fprintf(os.Stderr, "campaign: %d targets in %v (%.0f targets/s, %s)\n",
		sum.Targets, elapsed.Round(time.Millisecond), float64(sum.Targets)/elapsed.Seconds(), desc)
	sum.WriteText(stdout)
	if c.stats {
		// Opt-in: the telemetry block carries wall-clock timings, so the
		// default stdout stays byte-reproducible for a fixed seed.
		cfg.Obs.Snapshot().WriteText(stdout)
	}
	return nil
}

// serve runs the coordinator: listen (on an auto-created unix socket when no
// address was given), fork local workers under a respawning supervisor when
// asked, serve the lease protocol, reap the children. Worker failures after
// a successful run are advisory — their leases were re-issued and the output
// is complete. Exhausting the respawn budget folds into the interrupt path:
// the coordinator drains, checkpoints, and the run resumes later.
func (d *distFlags) serve(cfg campaign.Config, expect int, fs *flag.FlagSet) (*campaign.Summary, error) {
	addr := d.addr
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
	if d.faultSeed != 0 {
		// Chaos rehearsal: every worker connection runs through the seeded
		// fault injector. The self-healing machinery (reconnects, lease
		// re-issue, respawn) must still produce byte-identical output.
		ln = faultnet.Wrap(ln, faultnet.Chaos(d.faultSeed))
		fmt.Fprintf(os.Stderr, "campaign: faultnet enabled (seed %d)\n", d.faultSeed)
	}
	var sup *dist.Supervisor
	if d.spawn > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		sup, err = dist.Supervise(int(d.spawn), exe, workerArgv(fs, addr), int(d.maxRespawn), os.Stderr, cfg.Obs)
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
		LeaseTimeout:  d.leaseTimeout,
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

// archiveFile moves path (if set and present) aside to the first free
// <path>.oldN name, so a forced restart preserves the previous campaign's
// output instead of truncating it.
func archiveFile(path string) error {
	if _, err := os.Stat(path); path == "" || os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	for n := 1; ; n++ {
		cand := fmt.Sprintf("%s.old%d", path, n)
		if _, err := os.Stat(cand); os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "campaign: archived %s -> %s\n", path, cand)
			return os.Rename(path, cand)
		} else if err != nil {
			return err
		}
	}
}
