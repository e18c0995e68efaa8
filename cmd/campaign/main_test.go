package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives a small end-to-end campaign through the CLI entry
// point, including JSONL/CSV output and the deterministic summary.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	csv := filepath.Join(dir, "out.csv")
	args := []string{
		"-quick", "-samples", "4", "-workers", "8",
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

// TestRunListTargets checks the enumeration listing path.
func TestRunListTargets(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-list-targets", "-profiles", "freebsd4", "-impairments", "clean", "-tests", "syn", "-seeds", "3"}, &buf)
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

	if err := run(append([]string{"-seeds", "2"}, base...), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	oldJSONL, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	// A config change (different seed count) dead-ends -resume on the
	// fingerprint refusal...
	err = run(append([]string{"-seeds", "3", "-resume"}, base...), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("changed config not refused by -resume: %v", err)
	}
	// ...and -force-restart with -resume is an error, not a silent pick.
	err = run(append([]string{"-seeds", "3", "-resume", "-force-restart"}, base...), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-force-restart -resume accepted: %v", err)
	}

	// -force-restart archives and reruns.
	var buf bytes.Buffer
	if err := run(append([]string{"-seeds", "3", "-force-restart"}, base...), &buf); err != nil {
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
	if err := run(append([]string{"-seeds", "3", "-force-restart"}, base...), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out + ".old2"); err != nil {
		t.Fatalf("second archive missing: %v", err)
	}
}

// TestRunBadFlags checks argument validation surfaces as errors.
func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-profiles", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run([]string{"-targets", "/nonexistent/targets.txt"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing targets file accepted")
	}
}

// TestRunBadDistFlags checks the distributed-plane knobs are validated up
// front with one-line errors, before any campaign state is touched.
func TestRunBadDistFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative max-respawn", []string{"-spawn", "2", "-max-respawn", "-1"}},
		{"zero reconnect-backoff", []string{"-worker", "-connect", "sock", "-reconnect-backoff", "0s"}},
		{"negative reconnect-backoff", []string{"-worker", "-connect", "sock", "-reconnect-backoff", "-5ms"}},
		{"faultnet without coordinator", []string{"-faultnet", "7"}},
		{"worker with spawn", []string{"-worker", "-connect", "sock", "-spawn", "2"}},
		{"worker with coordinate", []string{"-worker", "-connect", "sock", "-coordinate", "sock2"}},
		{"connect without worker", []string{"-connect", "sock"}},
	}
	for _, tc := range cases {
		if err := run(tc.args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The mode conflict must win over anything enumeration would report:
	// it is checked before the target list is built.
	err := run([]string{"-worker", "-profiles", "bogus"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-worker requires -connect") {
		t.Errorf("-worker without -connect: got %v, want the mode error before enumeration", err)
	}
}
