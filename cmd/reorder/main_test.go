package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"reorder/internal/campaign"
	"reorder/internal/cli"
	"reorder/internal/experiments"
)

// asCommand, when set in the environment, makes the test binary behave as
// the reorder command itself, so a test can run it as a process and read
// its exit status.
const asCommand = "REORDER_TEST_AS_COMMAND"

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

// runOK runs the command line and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("reorder %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// golden returns testdata/name. The probe and analyze goldens hold what the
// one-purpose commands this binary replaced printed for the same
// measurement; each experiment's golden is its report at paper size.
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if want := golden(t, name); got != want {
		t.Errorf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestGoldens pins every byte each command prints on stdout and writes to
// -csv: a probe of each technique and every experiment in the paper's
// configuration, on the default worker pool. The survey and agreement
// reports come from one default-pool survey, built here as their commands
// build it; TestWorkerInvariance runs both commands.
func TestGoldens(t *testing.T) {
	survey := experiments.RunSurvey(surveyConfig(campaign.DefaultWorkers))
	t.Run("survey", func(t *testing.T) {
		var out, csv bytes.Buffer
		survey.WriteText(&out)
		if err := survey.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "survey.out", out.String())
		checkGolden(t, "survey.csv", csv.String())
	})
	t.Run("agreement", func(t *testing.T) {
		var out bytes.Buffer
		experiments.RunAgreement(survey).WriteText(&out)
		checkGolden(t, "agreement.out", out.String())
	})
	for _, tc := range []struct {
		golden string
		args   []string
		csv    bool
	}{
		{"probe-single", []string{"probe", "-test", "single", "-v"}, false},
		{"probe-dual", []string{"probe", "-test", "dual", "-trunk", "-v"}, false},
		{"probe-syn", []string{"probe", "-test", "syn", "-lb"}, false},
		{"probe-transfer", []string{"probe", "-test", "transfer", "-rev", "0.1"}, false},
		{"probe-ipid", []string{"probe", "-test", "ipid", "-profile", "linux24"}, false},
		{"timeseries", []string{"timeseries"}, false},
		{"baselines", []string{"baselines"}, false},
		{"cooperative", []string{"cooperative"}, false},
		{"validate", []string{"validate"}, true},
		{"timedist", []string{"timedist"}, true},
		{"mechanisms", []string{"mechanisms"}, true},
		{"impact", []string{"impact"}, true},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			csvPath := filepath.Join(t.TempDir(), "out.csv")
			args := tc.args
			if tc.csv {
				args = append(args, "-csv", csvPath)
			}
			checkGolden(t, tc.golden+".out", runOK(t, args...))
			if !tc.csv {
				return
			}
			got, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden+".csv", string(got))
		})
	}
}

// TestCaptures checks probe -pcap and analyze -in: the four captures are
// written, and reported, in the order a packet meets the capture points,
// with the golden bytes; the analysis of two of them matches its golden; and
// the ipid test writes its captures too.
func TestCaptures(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "cap")
	out := runOK(t, "probe", "-test", "transfer", "-rev", "0.1", "-pcap", prefix)
	out = strings.ReplaceAll(out, dir+string(filepath.Separator), "")
	lines := strings.SplitAfter(out, "\n")
	var wrote []string
	for _, l := range lines {
		if name, ok := strings.CutPrefix(l, "wrote "); ok {
			wrote = append(wrote, strings.Fields(name)[0])
		}
	}
	if got := strings.Join(wrote, " "); got != "cap-probe-egress.pcap cap-host-ingress.pcap cap-host-egress.pcap cap-probe-ingress.pcap" {
		t.Errorf("captures reported in the order %s", got)
	}
	// The golden stdout is the same lines in whatever order a map gave them.
	want := strings.SplitAfter(golden(t, "probe-transfer-pcap.out"), "\n")
	sort.Strings(lines)
	sort.Strings(want)
	if strings.Join(lines, "") != strings.Join(want, "") {
		t.Errorf("stdout lines differ from the golden:\n%s", out)
	}

	sums := bufio.NewScanner(strings.NewReader(golden(t, "probe-transfer-pcap.sha256")))
	for sums.Scan() {
		sum, name, _ := strings.Cut(sums.Text(), "  ")
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if h := sha256.Sum256(b); hex.EncodeToString(h[:]) != sum {
			t.Errorf("%s: sha256 %x, golden %s", name, h, sum)
		}
	}

	in := prefix + "-probe-ingress.pcap," + prefix + "-host-egress.pcap"
	got := strings.ReplaceAll(runOK(t, "analyze", "-in", in), dir+string(filepath.Separator), "")
	checkGolden(t, "analyze.out", got)

	runOK(t, "probe", "-test", "ipid", "-pcap", filepath.Join(dir, "ipid"))
	for _, point := range []string{"probe-egress", "host-ingress", "host-egress", "probe-ingress"} {
		if _, err := os.Stat(filepath.Join(dir, "ipid-"+point+".pcap")); err != nil {
			t.Error(err)
		}
	}
}

// TestWorkerInvariance checks that every command with -workers prints,
// serially, the report its golden holds from the default pool: each run of
// an experiment is hermetic, its scenario derived from its seed alone. The
// survey also writes its -csv here: this is the test that runs the survey
// command.
func TestWorkerInvariance(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "survey.csv")
	if runOK(t, "survey", "-workers", "1", "-csv", csvPath) != golden(t, "survey.out") {
		t.Error("survey: -workers 1 changed the report")
	}
	if got, err := os.ReadFile(csvPath); err != nil {
		t.Fatal(err)
	} else if string(got) != golden(t, "survey.csv") {
		t.Error("survey: -workers 1 changed the CSV")
	}
	for _, c := range []string{"agreement", "validate", "timedist", "mechanisms"} {
		if runOK(t, c, "-workers", "1") != golden(t, c+".out") {
			t.Errorf("%s: -workers 1 changed the report", c)
		}
	}
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

// TestCommandFlagSets is the group × command matrix: each command defines
// exactly the groups it composes, and every other flag any command defines
// is, on it, "flag provided but not defined" — combinations the old
// one-purpose mains silently ignored (timedist -mechanisms -samples, survey
// -timeseries -workers) can no longer be written down. Neither can the old
// selector flags, which the command name replaced.
func TestCommandFlagSets(t *testing.T) {
	quiet(t)
	groups := map[string][]string{
		"workers": {"workers"},
		"samples": {"samples"},
		"csv":     {"csv"},
		"probe":   {"test", "gap", "fwd", "rev", "loss", "seed", "reversed", "lb", "trunk", "profile", "v", "pcap"},
		"plot":    {"plot"},
		"analyze": {"in", "min"},
	}
	composes := map[string][]string{
		"probe":       {"probe", "samples"},
		"analyze":     {"analyze"},
		"survey":      {"workers", "csv"},
		"agreement":   {"workers"},
		"timeseries":  nil,
		"baselines":   nil,
		"cooperative": nil,
		"validate":    {"samples", "workers", "csv"},
		"timedist":    {"samples", "workers", "csv", "plot"},
		"mechanisms":  {"workers", "csv"},
		"impact":      {"csv"},
	}
	universe := map[string]bool{}
	for _, names := range groups {
		for _, n := range names {
			universe[n] = true
		}
	}
	for _, n := range []string{"all", "agreement", "timeseries", "baselines", "cooperative", "mechanisms"} {
		universe[n] = true // the retired selector flags
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

// TestRefusedArguments checks that what once selected a mode or a reduced
// configuration (-quick), or named an input by position, is a usage error: a
// stray argument would end flag parsing and silently drop every flag behind
// it.
func TestRefusedArguments(t *testing.T) {
	quiet(t)
	for _, args := range [][]string{
		{"single"},
		{"probe", "single"},
		{"probe", "-test", "nope"},
		{"probe", "-profile", "nope"},
		{"analyze"},
		{"analyze", "capture.pcap"},
		{"survey", "-workers", "1", "extra"},
		{"survey", "-quick"},
	} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%q: got %v, want a usage error", args, err)
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.pcap")
	if err := run([]string{"analyze", "-in", missing}, &bytes.Buffer{}); !errors.Is(err, cli.ErrReported) {
		t.Errorf("analyze of a missing capture: got %v, want ErrReported", err)
	}
}

// TestBareFlagsNameTheCommands runs the binary the old way — flags, no
// command: it must exit 2 and list every command.
func TestBareFlagsNameTheCommands(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test", "single", "-v")
	cmd.Env = append(os.Environ(), asCommand+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("reorder -test single -v: got %v, want exit status 2", err)
	}
	if len(commands) != 11 {
		t.Errorf("%d commands, want 11", len(commands))
	}
	for _, c := range commands {
		if !strings.Contains(stderr.String(), "\n  "+c.Name+" ") {
			t.Errorf("usage does not list %q:\n%s", c.Name, stderr.String())
		}
	}
}
