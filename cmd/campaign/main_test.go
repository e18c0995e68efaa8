package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"reorder/internal/cli"
)

// asCommand, when set in the environment, makes the test binary behave as
// the campaign command itself: `serve -spawn` forks os.Executable(), which
// under `go test` is this binary, so the spawned workers land here.
const asCommand = "CAMPAIGN_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// quiet discards the usage text refused invocations print on stderr.
func quiet(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = null
	t.Cleanup(func() {
		os.Stderr = stderr
		null.Close()
	})
}

// flagNames returns the sorted names setup defines.
func flagNames(setup func(*flag.FlagSet)) []string {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	setup(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

func enumerationFlags() []string {
	return flagNames(func(fs *flag.FlagSet) { new(enumFlags).define(fs) })
}

// TestRunSmoke drives a small end-to-end campaign through the CLI entry
// point, including JSONL/CSV output and the deterministic summary.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	csv := filepath.Join(dir, "out.csv")
	args := []string{
		"run", "-quick", "-samples", "4", "-workers", "8",
		"-profiles", "freebsd4,linux24",
		"-impairments", "clean,swap-heavy",
		"-out", out, "-csv", csv,
	}

	var a bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "campaign:") || !strings.Contains(a.String(), "single") {
		t.Fatalf("summary missing expected content:\n%s", a.String())
	}
	jsonl, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// 2 profiles × 2 impairments × 2 tests (quick) × 2 seeds = 16 records.
	if got := bytes.Count(jsonl, []byte("\n")); got != 16 {
		t.Fatalf("JSONL has %d records, want 16", got)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatal(err)
	}

	// The summary on stdout must be byte-identical across runs.
	var b bytes.Buffer
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CLI summary not deterministic across runs")
	}
}

// TestGoldens pins every byte the chaos and congestion experiments print
// at their defaults, the reports README quotes, and holds a one-worker run
// to the same bytes.
func TestGoldens(t *testing.T) {
	for _, c := range []string{"chaos", "congestion"} {
		want, err := os.ReadFile(filepath.Join("testdata", c+".out"))
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{c}, {c, "-workers", "1"}} {
			var got bytes.Buffer
			if err := run(args, &got); err != nil {
				t.Fatalf("campaign %s: %v", strings.Join(args, " "), err)
			}
			if got.String() != string(want) {
				t.Errorf("campaign %s differs from testdata/%s.out:\n--- got\n%s--- want\n%s",
					strings.Join(args, " "), c, got.String(), want)
			}
		}
	}
}

// TestRunListTargets checks the enumeration listing path.
func TestRunListTargets(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"targets", "-profiles", "freebsd4", "-impairments", "clean", "-tests", "syn", "-seeds", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("listed %d targets, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "freebsd4 clean syn ") {
		t.Fatalf("bad target line: %s", lines[0])
	}
}

// TestRunForceRestart exercises the escape hatch for a changed config:
// -resume refuses on the fingerprint mismatch, -force-restart archives the
// old output and checkpoint instead of truncating them and runs fresh.
func TestRunForceRestart(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	csv := filepath.Join(dir, "out.csv")
	ckpt := filepath.Join(dir, "camp.ckpt")
	base := []string{
		"-samples", "4", "-workers", "8",
		"-profiles", "freebsd4", "-impairments", "clean", "-tests", "syn",
		"-out", out, "-csv", csv, "-checkpoint", ckpt,
	}
	campaign := func(extra ...string) error {
		return run(append(append([]string{"run"}, extra...), base...), &bytes.Buffer{})
	}

	if err := campaign("-seeds", "2"); err != nil {
		t.Fatal(err)
	}
	oldJSONL, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	// A config change (different seed count) dead-ends -resume on the
	// fingerprint refusal...
	err = campaign("-seeds", "3", "-resume")
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("changed config not refused by -resume: %v", err)
	}
	// ...and -force-restart with -resume is an error, not a silent pick —
	// a value check, so it is reported before the target list is built.
	for _, args := range [][]string{
		{"run", "-force-restart", "-resume", "-targets", "/nonexistent"},
		{"serve", "-spawn", "2", "-force-restart", "-resume", "-targets", "/nonexistent"},
	} {
		err = run(args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Fatalf("%q: got %v, want the exclusivity error, not the missing file", args, err)
		}
	}

	// -force-restart archives and reruns.
	if err := campaign("-seeds", "3", "-force-restart"); err != nil {
		t.Fatal(err)
	}
	archived, err := os.ReadFile(out + ".old1")
	if err != nil {
		t.Fatalf("old output not archived: %v", err)
	}
	if !bytes.Equal(archived, oldJSONL) {
		t.Fatal("archived output differs from the original")
	}
	for _, p := range []string{csv + ".old1", ckpt + ".old1"} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s not archived: %v", p, err)
		}
	}
	newJSONL, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// 1 profile × 1 impairment × 1 test × 3 seeds = 3 fresh records.
	if got := bytes.Count(newJSONL, []byte("\n")); got != 3 {
		t.Fatalf("fresh JSONL has %d records, want 3", got)
	}

	// A second forced restart picks the next free archive suffix.
	if err := campaign("-seeds", "3", "-force-restart"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out + ".old2"); err != nil {
		t.Fatalf("second archive missing: %v", err)
	}
}

// TestRunBadFlags checks argument validation surfaces as errors.
func TestRunBadFlags(t *testing.T) {
	quiet(t)
	if err := run([]string{"run", "-profiles", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run([]string{"run", "-targets", "/nonexistent/targets.txt"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing targets file accepted")
	}
	for _, cmd := range []string{"run", "chaos"} {
		err := run([]string{cmd, "-scenario", "no-such-schedule"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "no-such-schedule") {
			t.Fatalf("%s -scenario no-such-schedule: %v", cmd, err)
		}
	}
	// A positional argument would end flag parsing and drop -out silently.
	if err := run([]string{"run", "-quick", "stray", "-out", "x.jsonl"}, &bytes.Buffer{}); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("stray positional argument: got %v, want a usage error", err)
	}
}

// TestRunBadDistFlags checks the distributed-plane knobs are validated up
// front with one-line errors, before any campaign state is touched.
func TestRunBadDistFlags(t *testing.T) {
	quiet(t)
	cases := []struct {
		name string
		args []string
	}{
		{"negative max-respawn", []string{"serve", "-spawn", "2", "-max-respawn", "-1"}},
		{"negative spawn", []string{"serve", "-spawn", "-2"}},
		{"zero lease-timeout", []string{"serve", "-spawn", "2", "-lease-timeout", "0s"}},
		{"zero reconnect-backoff", []string{"worker", "-connect", "sock", "-reconnect-backoff", "0s"}},
		{"negative reconnect-backoff", []string{"worker", "-connect", "sock", "-reconnect-backoff", "-5ms"}},
		{"zero reconnect-backoff to forward", []string{"serve", "-spawn", "2", "-reconnect-backoff", "0s"}},
		{"serve with nobody to serve", []string{"serve", "-quick"}},
	}
	for _, tc := range cases {
		if err := run(tc.args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// A missing -connect must win over anything enumeration would report:
	// it is checked before the target list is built.
	err := run([]string{"worker", "-profiles", "bogus"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-connect is required") {
		t.Errorf("worker without -connect: got %v, want the -connect error before enumeration", err)
	}
}

// TestCommandFlagSets pins the command × flag-group matrix: each command
// defines exactly the groups it composes, and every other flag any command
// defines is, on it, "flag provided but not defined" — the combinations the
// old flag-selected modes rejected by hand (worker with -spawn, -connect
// without -worker, -faultnet without a coordinator) or silently ignored
// (worker -out, congestion -resume, chaos -topology, targets -workers,
// catalogs -seed, …) can no longer be written down.
func TestCommandFlagSets(t *testing.T) {
	quiet(t)
	groups := map[string][]string{
		"enumeration": enumerationFlags(),
		"samples":     {"samples"},
		"workers":     {"workers"},
		"pace":        {"retries", "window", "batch"},
		"sinks":       {"out", "csv", "checkpoint", "resume", "force-restart", "stop-after"},
		"telemetry":   {"progress", "listen", "trace", "stats"},
		"profiling":   {"cpuprofile", "memprofile"},
		"dist":        {"coordinate", "spawn", "expect", "lease-timeout", "max-respawn", "faultnet"},
		"reconnect":   {"reconnect-backoff"},
		"connect":     {"connect"},
		"replicas":    {"seeds", "seed"},
		"topology":    {"topology"},
		"scenario":    {"scenario"},
	}
	composes := map[string][]string{
		"run":        {"enumeration", "samples", "workers", "pace", "sinks", "telemetry", "profiling"},
		"serve":      {"enumeration", "samples", "pace", "sinks", "telemetry", "profiling", "dist", "reconnect"},
		"worker":     {"enumeration", "samples", "connect", "reconnect"},
		"congestion": {"topology", "replicas", "samples", "workers", "profiling"},
		"chaos":      {"scenario", "replicas", "samples", "workers", "profiling"},
		"catalogs":   {},
		"targets":    {"enumeration"},
	}
	universe := map[string]bool{}
	for _, names := range groups {
		for _, n := range names {
			universe[n] = true
		}
	}
	if len(universe) > 36 {
		t.Errorf("%d settable flags, want at most 36", len(universe))
	}
	if len(commands) != len(composes) {
		t.Fatalf("%d commands, matrix has %d", len(commands), len(composes))
	}
	for _, c := range commands {
		want := map[string]bool{}
		for _, g := range composes[c.Name] {
			for _, n := range groups[g] {
				want[n] = true
			}
		}
		defined := map[string]bool{}
		for _, n := range flagNames(func(fs *flag.FlagSet) { c.Setup(fs) }) {
			defined[n] = true
			if !want[n] {
				t.Errorf("%s defines -%s, which is in none of its groups", c.Name, n)
			}
		}
		for n := range universe {
			if want[n] && !defined[n] {
				t.Errorf("%s does not define -%s", c.Name, n)
			}
			if want[n] {
				continue
			}
			if err := run([]string{c.Name, "-" + n + "=1"}, &bytes.Buffer{}); !errors.Is(err, cli.ErrUsage) {
				t.Errorf("%s -%s: got %v, want a usage error", c.Name, n, err)
			}
		}
	}
}

// TestBareFlagsNameTheCommands runs the binary the old way — flags, no
// command: it must exit 2 and list every command.
func TestBareFlagsNameTheCommands(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-quick", "-out", "x.jsonl")
	cmd.Env = append(os.Environ(), asCommand+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("campaign -quick: got %v, want exit status 2", err)
	}
	for _, c := range commands {
		if !strings.Contains(stderr.String(), "\n  "+c.Name+" ") {
			t.Errorf("usage does not list %q:\n%s", c.Name, stderr.String())
		}
	}
}

// TestWorkerArgvForwardsEnumeration checks the derived child argv: with
// every enumeration flag set on serve, the worker argv parses, carries the
// sample count, leaves the coordinator's own flags behind and enumerates the
// same target list. The flag list comes from the enumeration group itself,
// so a flag added there is either forwarded or fails this test.
func TestWorkerArgvForwardsEnumeration(t *testing.T) {
	values := map[string]string{
		"profiles": "freebsd4,linux24", "impairments": "clean,swap-heavy", "tests": "syn,dual",
		"seeds": "3", "seed": "99", "topology": "p2p,bottleneck", "scenario": "rst-inject", "quick": "true",
	}
	var enumArgs []string
	for _, n := range enumerationFlags() {
		if n == "targets" {
			continue // overrides the rest; its own case below
		}
		v, ok := values[n]
		if !ok {
			t.Fatalf("enumeration flag -%s has no value in this test: add one", n)
		}
		enumArgs = append(enumArgs, "-"+n+"="+v)
	}
	list := filepath.Join(t.TempDir(), "targets.txt")
	var listing bytes.Buffer
	if err := run(append([]string{"targets"}, enumArgs...), &listing); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(list, listing.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{enumArgs, {"-targets=" + list}} {
		serve := flag.NewFlagSet("serve", flag.ContinueOnError)
		setupServe(serve)
		own := []string{"-spawn=2", "-out=x.jsonl", "-stats"}
		if err := serve.Parse(append(append([]string{"-samples=5", "-reconnect-backoff=20ms"}, own...), args...)); err != nil {
			t.Fatal(err)
		}
		argv := workerArgv(serve, "sock")
		if argv[0] != "worker" {
			t.Fatalf("argv = %q, want the worker command first", argv)
		}
		worker := flag.NewFlagSet("worker", flag.ContinueOnError)
		setupWorker(worker)
		if err := worker.Parse(argv[1:]); err != nil {
			t.Fatalf("worker cannot parse its derived argv %q: %v", argv, err)
		}
		for name, want := range map[string]string{"connect": "sock", "samples": "5", "reconnect-backoff": "20ms"} {
			if got := worker.Lookup(name).Value.String(); got != want {
				t.Errorf("worker -%s = %q, want %q (argv %q)", name, got, want, argv)
			}
		}
		// What the worker would enumerate: its argv, less what the targets
		// command does not take, through the targets command.
		targetsFS := flag.NewFlagSet("targets", flag.ContinueOnError)
		setupTargets(targetsFS)
		child := []string{"targets"}
		for _, a := range argv[1:] {
			name := strings.TrimPrefix(a[:strings.Index(a, "=")], "-")
			if serve.Lookup(name) == nil && name != "connect" {
				t.Errorf("argv carries -%s, which serve does not define", name)
			}
			for _, o := range own {
				if strings.HasPrefix(o, "-"+name) {
					t.Errorf("argv carries the coordinator's own -%s", name)
				}
			}
			if targetsFS.Lookup(name) != nil {
				child = append(child, a)
			}
		}
		var got bytes.Buffer
		if err := run(child, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), listing.Bytes()) {
			t.Errorf("worker argv %q enumerates a different target list than serve %q", argv, args)
		}
	}
}

// TestServeSpawnMatchesRun is the distributed contract through real
// fork/exec: `serve -spawn 2` — a coordinator and two worker processes over
// a unix socket, the workers started from the derived argv and admitted by
// the fingerprint handshake — writes byte for byte the JSONL, CSV and
// summary of `run` over the same list.
func TestServeSpawnMatchesRun(t *testing.T) {
	t.Setenv(asCommand, "1")
	list := []string{
		"-profiles", "freebsd4,linux24", "-impairments", "clean,swap-heavy",
		"-topology", "p2p,bottleneck", "-seeds", "2", "-retries", "1",
	}
	dir := t.TempDir()
	outputs := map[string][3][]byte{}
	for _, mode := range [][]string{{"run"}, {"serve", "-spawn", "2"}} {
		jsonl := filepath.Join(dir, mode[0]+".jsonl")
		csv := filepath.Join(dir, mode[0]+".csv")
		var summary bytes.Buffer
		if err := run(append(append(mode, list...), "-out", jsonl, "-csv", csv), &summary); err != nil {
			t.Fatalf("%s: %v", mode[0], err)
		}
		j, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		outputs[mode[0]] = [3][]byte{j, c, summary.Bytes()}
	}
	// 2 profiles × 2 impairments × 4 tests × 2 seeds × 2 topologies.
	if got := bytes.Count(outputs["run"][0], []byte("\n")); got != 64 {
		t.Fatalf("run wrote %d records, want 64", got)
	}
	for i, what := range []string{"JSONL", "CSV", "summary"} {
		if !bytes.Equal(outputs["run"][i], outputs["serve"][i]) {
			t.Errorf("serve -spawn 2 %s differs from run", what)
		}
	}
}
