package dist

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/faultnet"
	"reorder/internal/obs"
)

// The chaos soak needs real worker *processes* (so a kill+respawn is a
// genuine SIGKILL, not a simulated one). The test binary doubles as the
// worker: TestMain re-execs os.Args[0] with these env vars set, and the
// child runs RunWorker instead of the test suite — or, with envCrash set,
// exits 3 at once, a worker that crashes on every start.
const (
	envWorker = "CAMPAIGN_DIST_TEST_WORKER"
	envAddr   = "CAMPAIGN_DIST_TEST_ADDR"
	envCrash  = "CAMPAIGN_DIST_TEST_CRASH"
)

func TestMain(m *testing.M) {
	if os.Getenv(envCrash) == "1" {
		os.Exit(3)
	}
	if os.Getenv(envWorker) == "1" {
		os.Exit(chaosWorkerMain())
	}
	os.Exit(m.Run())
}

// TestSupervisorExhaustsBudget: a worker that crashes on every start is
// respawned until the budget is spent; then Exhausted closes — serve's cue
// to drain and checkpoint — and Wait reports the exhaustion instead of
// waiting for a fleet that will never come back.
func TestSupervisorExhaustsBudget(t *testing.T) {
	t.Setenv(envCrash, "1")
	reg := obs.NewCampaign(1)
	sup, err := Supervise(1, os.Args[0], nil, 2, io.Discard, reg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sup.Exhausted():
	case <-time.After(time.Minute):
		sup.Kill()
		t.Fatal("respawn budget of 2 not exhausted by a worker that always exits 3")
	}
	// What serve does after a failed run; every process has exited, so it
	// must neither block nor fail.
	sup.Kill()
	if got := reg.Dist.Respawns.Load(); got != 2 {
		t.Errorf("%d respawns counted, want the budget of 2", got)
	}
	if err := sup.Wait(time.Second); err == nil || !strings.Contains(err.Error(), "respawn budget exhausted") {
		t.Fatalf("Wait: got %v, want the respawn budget error", err)
	}
}

// soakSpec is the chaos-soak enumeration: 72 targets, big enough that
// seeded faults land mid-campaign and a killed worker's respawn still
// finds work to do.
func soakSpec() campaign.EnumSpec {
	return campaign.EnumSpec{
		Profiles:    []string{"freebsd4", "linux24", campaign.LBPool},
		Impairments: []string{"clean", "swap-heavy"},
		Tests:       []string{"single", "dual", "syn", "transfer"},
		Seeds:       3,
		BaseSeed:    42,
	}
}

// chaosWorkerMain is the helper-process entry: a self-healing worker wired
// for chaos (fast reconnect, effectively unbounded retry budget) probing
// the soak enumeration.
func chaosWorkerMain() int {
	targets, err := campaign.Enumerate(soakSpec())
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak worker: enumerate:", err)
		return 1
	}
	err = RunWorker(WorkerConfig{
		Connect:          os.Getenv(envAddr),
		Targets:          targets,
		Samples:          4,
		Obs:              obs.NewCampaign(1),
		Heartbeat:        100 * time.Millisecond,
		ReconnectBackoff: 20 * time.Millisecond,
		MaxReconnects:    100,
		WriteTimeout:     5 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak worker:", err)
		return 1
	}
	return 0
}

// slowEmit is a Progress callback that holds the coordinator's in-order
// emit for d per emitted span. Under a small Batch the run lasts about d
// per span, long enough for faults, kills and reconnects to land
// mid-flight, and no output byte changes.
func slowEmit(d time.Duration) func(done, total int) {
	return func(int, int) { time.Sleep(d) }
}

// soakFaults is the soak's fault profile. The seed is pinned: faultnet
// plans are a pure function of (Config, connection index), so this exact
// fault schedule reproduces on every run — which is what makes a chaos
// failure debuggable. Byte thresholds are offsets into each connection's
// stream, so the seed is chosen for the soak's traffic shape and retuned
// when a message's size changes: with this one each of the first three
// connections dies inside its first lease (two reset while their first
// report is read, one stalls writing its first span), so every worker
// process is welcomed, loses its lease and reconnects before scheduling
// or the deliberate kill can matter.
func soakFaults() faultnet.Config {
	return faultnet.Config{
		Seed:           48570,
		PReset:         0.6,
		PPartialStall:  0.5,
		PDupLine:       0.25,
		PTruncLine:     0.2,
		LatencyMax:     500 * time.Microsecond,
		Stall:          10 * time.Millisecond,
		AcceptFailures: 2,
		MaxFaults:      10,
		ByteWindow:     1500,
	}
}

// TestChaosSoak is the capstone: coordinator + 3 worker processes run the
// campaign through seeded control-plane faults (resets, partial-write
// stalls, duplicated and truncated lines, transient accept failures) plus
// one deliberate mid-campaign SIGKILL with supervised respawn — and the
// final JSONL, CSV, checkpoint and summary bytes must be identical to a
// clean single-process run, with the self-healing counters proving the
// faults actually happened.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak spawns worker processes")
	}
	targets, err := campaign.Enumerate(soakSpec())
	if err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	refSum := runSingle(t, targets, refDir)
	refJSONL, refCSV := readOut(t, refDir)
	var refText bytes.Buffer
	refSum.WriteText(&refText)

	// Same config, same seed → same plans: the reproducibility contract
	// the soak's debuggability rests on.
	if a, b := faultnet.Wrap(nil, soakFaults()), faultnet.Wrap(nil, soakFaults()); a.PlanFor(5) != b.PlanFor(5) {
		t.Fatal("fault plans are not reproducible from the seed")
	}

	dir := t.TempDir()
	out, csv, ckpt := outPaths(dir)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.Wrap(raw, soakFaults())
	t.Setenv(envWorker, "1")
	t.Setenv(envAddr, raw.Addr().String())

	coordObs := obs.NewCampaign(1)
	sup, err := Supervise(3, os.Args[0], nil, 3, os.Stderr, coordObs)
	if err != nil {
		t.Fatal(err)
	}

	// One deliberate process kill once the campaign is demonstrably mid
	// flight; the supervisor must respawn the slot and the respawned
	// worker must pick up re-issued leases. Single-target leases under a
	// window of one per worker, each emit held for a few milliseconds,
	// stretch the run past the fault schedule.
	var once sync.Once
	sum, serveErr := Serve(Config{
		Campaign: campaign.Config{
			Targets:        targets,
			Samples:        4,
			Batch:          1,
			Window:         3,
			OutputPath:     out,
			CSVPath:        csv,
			CheckpointPath: ckpt,
			Obs:            coordObs,
			Progress: func(done, total int) {
				time.Sleep(4 * time.Millisecond)
				if done >= 12 {
					once.Do(func() {
						if p := sup.Processes()[0]; p != nil {
							p.Kill()
						}
					})
				}
			},
		},
		Listener:      fln,
		ExpectWorkers: 3,
		LeaseTimeout:  5 * time.Second,
		Log:           os.Stderr,
	})
	werr := sup.Wait(5 * time.Second)
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if werr != nil {
		t.Logf("supervisor: %v (advisory — leases were re-issued)", werr)
	}
	if sum.Interrupted {
		t.Fatal("soak run reported interrupted")
	}

	// Byte identity against the clean single-process run.
	jsonl, csvb := readOut(t, dir)
	if !bytes.Equal(jsonl, refJSONL) {
		t.Error("JSONL differs from single-process run after chaos")
	}
	if !bytes.Equal(csvb, refCSV) {
		t.Error("CSV differs from single-process run after chaos")
	}
	var text bytes.Buffer
	sum.WriteText(&text)
	if !bytes.Equal(text.Bytes(), refText.Bytes()) {
		t.Errorf("summary differs after chaos\n--- chaos ---\n%s--- clean ---\n%s", text.String(), refText.String())
	}
	refCkpt, _ := os.ReadFile(refDir + "/ckpt.json")
	gotCkpt, _ := os.ReadFile(ckpt)
	if !bytes.Equal(refCkpt, gotCkpt) {
		t.Error("checkpoint differs from single-process run after chaos")
	}

	// The faults must actually have happened: the injector's event log
	// shows what fired, the registry shows the plane healed it.
	kinds := map[faultnet.Kind]int{}
	for _, ev := range fln.Events() {
		kinds[ev.Kind]++
	}
	t.Logf("fired faults: %v", kinds)
	if kinds[faultnet.KindReset] == 0 {
		t.Error("no connection reset fired (retune the fault seed)")
	}
	if kinds[faultnet.KindPartialStall] == 0 {
		t.Error("no partial-write stall fired (retune the fault seed)")
	}
	if kinds[faultnet.KindAcceptError] != 2 {
		t.Errorf("accept-error events = %d, want 2", kinds[faultnet.KindAcceptError])
	}

	snap := coordObs.Snapshot()
	t.Logf("dist counters: %+v", snap.Dist)
	if snap.Dist.Respawns < 1 {
		t.Errorf("respawns = %d, want >= 1 (the killed worker)", snap.Dist.Respawns)
	}
	if snap.Dist.Reconnects < 1 {
		t.Errorf("reconnects = %d, want >= 1", snap.Dist.Reconnects)
	}
	if snap.Dist.LeaseReissues < 1 {
		t.Errorf("lease re-issues = %d, want >= 1", snap.Dist.LeaseReissues)
	}
	if snap.Dist.AcceptRetries != 2 {
		t.Errorf("accept retries = %d, want 2", snap.Dist.AcceptRetries)
	}
	if snap.Done != int64(len(targets)) {
		t.Errorf("progress done = %d, want %d", snap.Done, len(targets))
	}
}

// TestReconnectSurvivesConnReset is the focused acceptance check: every
// early coordinator-side connection carries a scheduled reset, the
// workers' reconnect loops must re-handshake and finish the campaign with
// zero lost or duplicated targets, and the registry must show both the
// reconnects and the lease re-issues that healed them.
func TestReconnectSurvivesConnReset(t *testing.T) {
	// The campaign must outlive the reconnect: single-target leases and a
	// held emit stretch the run to a few hundred milliseconds (without
	// changing the bytes), so a worker that loses its connection early
	// rejoins while there is still work, finishes it, and ships its
	// counters at the drain.
	targets, err := campaign.Enumerate(soakSpec())
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	runSingle(t, targets, refDir)
	refJSONL, refCSV := readOut(t, refDir)

	dir := t.TempDir()
	out, csv, ckpt := outPaths(dir)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Every connection draws a reset inside its first 1200 bytes; the
	// budget lets two fire before the plane is left alone, so the run
	// always terminates.
	fln := faultnet.Wrap(raw, faultnet.Config{
		Seed:       3,
		PReset:     1,
		ByteWindow: 1200,
		MaxFaults:  2,
	})
	addr := raw.Addr().String()

	coordObs := obs.NewCampaign(1)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(WorkerConfig{
				Connect:          addr,
				Targets:          targets,
				Samples:          4,
				Obs:              obs.NewCampaign(1),
				Heartbeat:        100 * time.Millisecond,
				ReconnectBackoff: 10 * time.Millisecond,
				MaxReconnects:    20,
			}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	sum, err := Serve(Config{
		Campaign: campaign.Config{
			Targets:        targets,
			Samples:        4,
			Batch:          1,
			OutputPath:     out,
			CSVPath:        csv,
			CheckpointPath: ckpt,
			Obs:            coordObs,
			Progress:       slowEmit(3 * time.Millisecond),
		},
		Listener:      fln,
		ExpectWorkers: 2,
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted {
		t.Fatal("run reported interrupted after reconnect recovery")
	}

	jsonl, csvb := readOut(t, dir)
	if !bytes.Equal(jsonl, refJSONL) {
		t.Error("JSONL differs after reconnect recovery")
	}
	if !bytes.Equal(csvb, refCSV) {
		t.Error("CSV differs after reconnect recovery")
	}

	resets := 0
	for _, ev := range fln.Events() {
		if ev.Kind == faultnet.KindReset {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("no reset fired — the test exercised nothing")
	}
	snap := coordObs.Snapshot()
	if snap.Dist.Reconnects < 1 {
		t.Errorf("reconnects = %d, want >= 1", snap.Dist.Reconnects)
	}
	if snap.Dist.LeaseReissues < 1 {
		t.Errorf("lease re-issues = %d, want >= 1", snap.Dist.LeaseReissues)
	}
	if snap.Done != int64(len(targets)) {
		t.Errorf("done = %d, want %d (zero lost targets)", snap.Done, len(targets))
	}
	if snap.Workers.Targets < uint64(len(targets)) {
		t.Errorf("worker targets = %d, want >= %d", snap.Workers.Targets, len(targets))
	}
}

// TestWorkerSkipsDuplicatedSpanLine pins the protocol-desync fix the
// fault injector flushed out: a duplicated span control line must not
// consume a lease-reply slot. A worker that treats the duplicate as a
// grant runs one message ahead of the coordinator forever after — and the
// coordinator handler, which parks deadline-free in grant() assuming a
// lease-requesting worker has nothing in flight, never reads the reports
// the desynced worker sends, wedging the run.
func TestWorkerSkipsDuplicatedSpanLine(t *testing.T) {
	targets := testTargets(t)
	cc, wc := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{
			Conn:      wc,
			Targets:   targets,
			Samples:   4,
			Heartbeat: time.Minute, // out of the way; the script is synchronous
		})
	}()

	w := newWire(cc)
	recv := func(want string) *Msg {
		t.Helper()
		for {
			m, err := w.recv()
			if err != nil {
				t.Fatalf("awaiting %q: %v", want, err)
			}
			if m.Type == MsgHeartbeat {
				continue
			}
			if m.Type != want {
				t.Fatalf("got %q, want %q", m.Type, want)
			}
			return m
		}
	}
	report := func() *Msg {
		t.Helper()
		m := recv(MsgReport)
		if err := w.readPayload(make([]byte, m.JSONLen)); err != nil {
			t.Fatal(err)
		}
		return m
	}

	recv(MsgHello)
	if err := w.send(&Msg{Type: MsgWelcome, Worker: 1, Samples: 4}); err != nil {
		t.Fatal(err)
	}
	recv(MsgLease)
	if err := w.send(&Msg{Type: MsgSpan, Lo: 0, Hi: 1}); err != nil {
		t.Fatal(err)
	}
	if m := report(); m.Lo != 0 || m.Hi != 1 {
		t.Fatalf("first report = [%d,%d), want [0,1)", m.Lo, m.Hi)
	}
	recv(MsgLease)
	// The reply to this lease request arrives behind a duplicated copy of
	// the previous span line.
	if err := w.send(&Msg{Type: MsgSpan, Lo: 0, Hi: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.send(&Msg{Type: MsgSpan, Lo: 1, Hi: 2}); err != nil {
		t.Fatal(err)
	}
	// A desynced worker re-probes and re-reports [0,1) here; the fixed one
	// skips the duplicate and answers the real grant.
	if m := report(); m.Lo != 1 || m.Hi != 2 {
		t.Fatalf("post-duplicate report = [%d,%d), want [1,2)", m.Lo, m.Hi)
	}
	recv(MsgLease)
	if err := w.send(&Msg{Type: MsgDrain}); err != nil {
		t.Fatal(err)
	}
	recv(MsgBye)
	cc.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestHeartbeatAtLeaseExpiry runs the pathological liveness timing: the
// worker's heartbeat interval equals the coordinator's lease timeout, so
// every heartbeat races the read-deadline expiry and some lose. Whichever
// way each race lands — heartbeat in time, or deadline → drop → revoke →
// reconnect → re-issue — the campaign must complete with byte-identical
// output.
func TestHeartbeatAtLeaseExpiry(t *testing.T) {
	targets := testTargets(t)
	refDir := t.TempDir()
	runSingle(t, targets, refDir)
	refJSONL, refCSV := readOut(t, refDir)

	dir := t.TempDir()
	out, csv, ckpt := outPaths(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const leaseTimeout = 80 * time.Millisecond

	coordObs := obs.NewCampaign(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(WorkerConfig{
			Connect:          ln.Addr().String(),
			Targets:          targets,
			Samples:          4,
			Obs:              obs.NewCampaign(1),
			Heartbeat:        leaseTimeout, // exactly at expiry, by design
			ReconnectBackoff: 10 * time.Millisecond,
			MaxReconnects:    50,
		}); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	sum, err := Serve(Config{
		Campaign: campaign.Config{
			Targets:        targets,
			Samples:        4,
			Batch:          1,
			OutputPath:     out,
			CSVPath:        csv,
			CheckpointPath: ckpt,
			Obs:            coordObs,
			// ~25ms per target: the run outlives several heartbeat races.
			Progress: slowEmit(25 * time.Millisecond),
		},
		Listener:     ln,
		LeaseTimeout: leaseTimeout,
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted {
		t.Fatal("run reported interrupted")
	}
	jsonl, csvb := readOut(t, dir)
	if !bytes.Equal(jsonl, refJSONL) {
		t.Error("JSONL differs under pathological heartbeat timing")
	}
	if !bytes.Equal(csvb, refCSV) {
		t.Error("CSV differs under pathological heartbeat timing")
	}
	// Drops are timing-dependent and allowed either way; what matters is
	// that every drop that did happen was healed (counted, not lost).
	snap := coordObs.Snapshot()
	if snap.Done != int64(len(targets)) {
		t.Errorf("done = %d, want %d", snap.Done, len(targets))
	}
	t.Logf("heartbeat-vs-expiry races lost (healed): %d reconnects, %d re-issues",
		snap.Dist.Reconnects, snap.Dist.LeaseReissues)
}
