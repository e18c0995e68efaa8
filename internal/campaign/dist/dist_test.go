package dist

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/obs"
)

// testTargets replicates the campaign package's smallSpec: 24 targets
// spanning the profile × impairment × test matrix, the same enumeration
// the golden SHAs pin.
func testTargets(t *testing.T) []campaign.Target {
	t.Helper()
	targets, err := campaign.Enumerate(campaign.EnumSpec{
		Profiles:    []string{"freebsd4", "linux24", campaign.LBPool},
		Impairments: []string{"clean", "swap-heavy"},
		Tests:       []string{"single", "dual", "syn", "transfer"},
		Seeds:       1,
		BaseSeed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// outPaths returns (jsonl, csv, checkpoint) paths under dir.
func outPaths(dir string) (string, string, string) {
	return filepath.Join(dir, "out.jsonl"), filepath.Join(dir, "out.csv"), filepath.Join(dir, "ckpt.json")
}

func readOut(t *testing.T, dir string) (jsonl, csv []byte) {
	t.Helper()
	out, csvPath, _ := outPaths(dir)
	jsonl, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	csv, err = os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, csv
}

// runSingle runs the reference single-process campaign into dir.
func runSingle(t *testing.T, targets []campaign.Target, dir string) *campaign.Summary {
	t.Helper()
	out, csv, ckpt := outPaths(dir)
	sum, err := campaign.Run(campaign.Config{
		Targets:        targets,
		Samples:        4,
		OutputPath:     out,
		CSVPath:        csv,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// serveDist runs a coordinator over cfg with n in-process workers
// connected via TCP loopback and returns the summary. Every worker's
// connection is dialled before Serve starts and handed over as
// WorkerConfig.Conn, so whether a slow worker gets its hello in before a
// short or drained campaign ends decides nothing: one that Serve never
// answered — it read not a byte — dies with its connection, which is not a
// failure of the run. Any error from a worker Serve did answer is.
func serveDist(t *testing.T, cfg Config, targets []campaign.Target, n int) (*campaign.Summary, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listener = ln
	var wg sync.WaitGroup
	workerErrs := make([]error, n)
	conns := make([]*countingConn, n)
	for i := 0; i < n; i++ {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = &countingConn{Conn: conn}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(WorkerConfig{
				Conn:    conns[i],
				Targets: targets,
				Samples: cfg.Campaign.Samples,
			})
		}(i)
	}
	sum, err := Serve(cfg)
	wg.Wait()
	for i, werr := range workerErrs {
		switch {
		case werr == nil || err != nil:
		case conns[i].read == 0:
			t.Logf("worker %d was never answered: %v", i, werr)
		default:
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	return sum, err
}

// countingConn counts the bytes read through it. Only the worker's
// session goroutine reads, and serveDist looks after that goroutine ends.
type countingConn struct {
	net.Conn
	read int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += n
	return n, err
}

// surveyTargets returns the first n targets of the survey enumeration.
func surveyTargets(t *testing.T, n int) []campaign.Target {
	t.Helper()
	targets, err := campaign.Enumerate(campaign.EnumSpec{Seeds: (n + 287) / 288})
	if err != nil {
		t.Fatal(err)
	}
	return targets[:n]
}

// TestServeMatchesRun is the core byte-identity check: a distributed run
// at any worker count produces the same JSONL, CSV, checkpoint and
// summary text as campaign.Run over the same config — with a span size
// misaligned with the range, and with default leases on lists either side
// of 2 × workers × LeaseSpanCap, where they reach the cap.
func TestServeMatchesRun(t *testing.T) {
	matches := func(name string, targets []campaign.Target, batch, workers int) {
		t.Helper()
		refDir := t.TempDir()
		refSum := runSingle(t, targets, refDir)
		refJSONL, refCSV := readOut(t, refDir)
		var refText bytes.Buffer
		refSum.WriteText(&refText)

		dir := t.TempDir()
		out, csv, ckpt := outPaths(dir)
		sum, err := serveDist(t, Config{
			Campaign: campaign.Config{
				Targets:        targets,
				Samples:        4,
				OutputPath:     out,
				CSVPath:        csv,
				CheckpointPath: ckpt,
				Batch:          batch,
			},
			ExpectWorkers: workers,
		}, targets, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jsonl, csvb := readOut(t, dir)
		if !bytes.Equal(jsonl, refJSONL) {
			t.Errorf("%s: JSONL differs from single-process run", name)
		}
		if !bytes.Equal(csvb, refCSV) {
			t.Errorf("%s: CSV differs from single-process run", name)
		}
		var text bytes.Buffer
		sum.WriteText(&text)
		if !bytes.Equal(text.Bytes(), refText.Bytes()) {
			t.Errorf("%s: summary text differs from single-process run\n--- dist ---\n%s\n--- single ---\n%s",
				name, text.String(), refText.String())
		}
		refCkpt, _ := os.ReadFile(filepath.Join(refDir, "ckpt.json"))
		distCkpt, _ := os.ReadFile(ckpt)
		if !bytes.Equal(refCkpt, distCkpt) {
			t.Errorf("%s: final checkpoint differs from single-process run", name)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		// Batch 5 is deliberately misaligned with the 24-target range.
		matches(fmt.Sprintf("workers=%d", workers), testTargets(t), 5, workers)
	}
	for _, n := range []int{1, 2, 2047, 2048, 2049} {
		matches(fmt.Sprintf("n=%d", n), surveyTargets(t, n), 0, 2)
	}
}

// TestServeLeaseCount pins what LeaseSpanCap buys: Serve over the survey
// list (57 600 targets) with two workers and no faults grants at most 130
// leases — full 512-target ones, then the tail's shrinking spans — where
// 32-target leases took 1 805. An explicit Batch of 32 is honoured, so
// 2 049 targets then take at least 64.
func TestServeLeaseCount(t *testing.T) {
	leases := func(n, batch int) uint64 {
		t.Helper()
		targets := surveyTargets(t, n)
		reg := obs.NewCampaign(1)
		if _, err := serveDist(t, Config{
			Campaign: campaign.Config{
				Targets: targets, Samples: 4, Retries: 1, Batch: batch, Obs: reg,
			},
			ExpectWorkers: 2,
		}, targets, 2); err != nil {
			t.Fatal(err)
		}
		got := reg.Snapshot().Scheduler.SpanClaims
		t.Logf("%d targets, batch %d: %d leases", n, batch, got)
		return got
	}
	if got := leases(57_600, 0); got > 130 {
		t.Errorf("a 57600-target pass over two workers granted %d leases, want at most 130", got)
	}
	if got := leases(2_049, 32); got < 64 {
		t.Errorf("a 2049-target pass at batch 32 granted %d leases, want at least 64", got)
	}
}

// TestServeScenarioMatchesRun extends the byte-identity check to a
// scenario-bearing population: fault schedules and middleboxes run inside
// each worker process, the scenario name rides the fingerprint handshake,
// and the workers' pre-rendered CSV must carry the gated scenario column
// exactly as a single-process run does (a worker that forgets to gate it
// shifts every scenario row).
func TestServeScenarioMatchesRun(t *testing.T) {
	targets, err := campaign.Enumerate(campaign.EnumSpec{
		Profiles:    []string{"freebsd4", "linux24"},
		Impairments: []string{"clean", "swap-heavy"},
		Tests:       []string{"single", "syn"},
		Seeds:       1,
		BaseSeed:    42,
		Topologies:  []string{"", "diamond"},
		Scenarios:   []string{"", "rst-inject", "route-flap"},
	})
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	runSingle(t, targets, refDir)
	refJSONL, refCSV := readOut(t, refDir)
	if !bytes.Contains(refCSV, []byte("scenario")) {
		t.Fatal("reference CSV lacks the scenario column")
	}

	dir := t.TempDir()
	out, csv, ckpt := outPaths(dir)
	if _, err := serveDist(t, Config{
		Campaign: campaign.Config{
			Targets:        targets,
			Samples:        4,
			OutputPath:     out,
			CSVPath:        csv,
			CheckpointPath: ckpt,
			Batch:          5,
		},
		ExpectWorkers: 2,
	}, targets, 2); err != nil {
		t.Fatal(err)
	}
	jsonl, csvb := readOut(t, dir)
	if !bytes.Equal(jsonl, refJSONL) {
		t.Error("scenario JSONL differs from single-process run")
	}
	if !bytes.Equal(csvb, refCSV) {
		t.Error("scenario CSV differs from single-process run")
	}
}

// crashAfterLease connects as a protocol-correct worker, takes one lease,
// and drops the connection without reporting — the crash the re-issue
// queue exists for. It returns the lease it died holding.
func crashAfterLease(t *testing.T, addr string, targets []campaign.Target) campaign.Span {
	t.Helper()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	w := newWire(conn)
	fp := campaign.Fingerprint(targets, 4)
	if err := w.send(&Msg{Type: MsgHello, Version: ProtocolVersion, Fingerprint: fp}); err != nil {
		t.Fatal(err)
	}
	if m, err := w.recv(); err != nil || m.Type != MsgWelcome {
		t.Fatalf("crasher handshake: %v %+v", err, m)
	}
	if err := w.send(&Msg{Type: MsgLease}); err != nil {
		t.Fatal(err)
	}
	m, err := w.recv()
	if err != nil || m.Type != MsgSpan {
		t.Fatalf("crasher lease: %v %+v", err, m)
	}
	conn.Close() // dies holding the lease
	return campaign.Span{Lo: m.Lo, Hi: m.Hi}
}

// TestWorkerCrashReissue kills a worker that holds a lease; the span must
// be re-issued and the final output stay byte-identical — for a 4-target
// lease, and for a default one at the full 512 targets.
func TestWorkerCrashReissue(t *testing.T) {
	for _, c := range []struct {
		targets []campaign.Target
		batch   int
		lease   campaign.Span
	}{
		{testTargets(t), 4, campaign.Span{Lo: 0, Hi: 4}},
		{surveyTargets(t, 2049), 0, campaign.Span{Lo: 0, Hi: campaign.LeaseSpanCap}},
	} {
		refDir := t.TempDir()
		runSingle(t, c.targets, refDir)
		refJSONL, refCSV := readOut(t, refDir)

		dir := t.TempDir()
		out, csv, ckpt := outPaths(dir)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()

		var log bytes.Buffer
		done := make(chan struct{})
		var sum *campaign.Summary
		var serveErr error
		go func() {
			defer close(done)
			sum, serveErr = Serve(Config{
				Campaign: campaign.Config{
					Targets:        c.targets,
					Samples:        4,
					OutputPath:     out,
					CSVPath:        csv,
					CheckpointPath: ckpt,
					Batch:          c.batch,
				},
				Listener: ln,
				Log:      &log,
			})
		}()

		// The crasher takes the first lease and dies with it, so the honest
		// worker's spans all stash behind the hole until re-issue.
		if sp := crashAfterLease(t, addr, c.targets); sp != c.lease {
			t.Errorf("%d targets: the crasher died holding %+v, want %+v", len(c.targets), sp, c.lease)
		}
		if err := RunWorker(WorkerConfig{Connect: addr, Targets: c.targets, Samples: 4}); err != nil {
			t.Fatalf("surviving worker: %v", err)
		}
		<-done
		if serveErr != nil {
			t.Fatal(serveErr)
		}
		if sum.Interrupted {
			t.Error("run reported interrupted after worker crash recovery")
		}
		if !strings.Contains(log.String(), "lost — 1 leases re-issued") {
			t.Errorf("coordinator log does not mention the re-issue:\n%s", log.String())
		}
		jsonl, csvb := readOut(t, dir)
		if !bytes.Equal(jsonl, refJSONL) {
			t.Errorf("%d targets: JSONL differs after crash recovery", len(c.targets))
		}
		if !bytes.Equal(csvb, refCSV) {
			t.Errorf("%d targets: CSV differs after crash recovery", len(c.targets))
		}
	}
}

// TestDrainResume interrupts a distributed run mid-campaign, then resumes
// it (once distributed, once single-process) and checks the stitched
// output is byte-identical to an uninterrupted run — drain, checkpoint
// federation and cross-mode resume in one.
//
// That the run ends interrupted does not depend on scheduling. Progress is
// called from the emit path before the lease table learns the new frontier,
// so when it closes Interrupt at 9 targets emitted the table's frontier is
// at most 6; with a window of two spans every lease granted until then
// ends at or before target 12, and the table grants none once the channel
// is closed. At most 12 of the 24 targets can complete.
func TestDrainResume(t *testing.T) {
	targets := testTargets(t)
	refDir := t.TempDir()
	runSingle(t, targets, refDir)
	refJSONL, refCSV := readOut(t, refDir)

	for _, resumeDist := range []bool{true, false} {
		dir := t.TempDir()
		out, csv, ckpt := outPaths(dir)
		interrupt := make(chan struct{})
		var once sync.Once
		sum, err := serveDist(t, Config{
			Campaign: campaign.Config{
				Targets:        targets,
				Samples:        4,
				OutputPath:     out,
				CSVPath:        csv,
				CheckpointPath: ckpt,
				Interrupt:      interrupt,
				Progress: func(done, total int) {
					if done >= 7 {
						once.Do(func() { close(interrupt) })
					}
				},
				Batch:  3,
				Window: 6,
			},
			ExpectWorkers: 2,
		}, targets, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sum.Interrupted {
			t.Fatal("drained run not marked interrupted")
		}

		resumeCfg := campaign.Config{
			Targets:        targets,
			Samples:        4,
			OutputPath:     out,
			CSVPath:        csv,
			CheckpointPath: ckpt,
			Resume:         true,
		}
		if resumeDist {
			resumeCfg.Batch = 3
			sum, err = serveDist(t, Config{Campaign: resumeCfg}, targets, 1)
		} else {
			sum, err = campaign.Run(resumeCfg)
		}
		if err != nil {
			t.Fatalf("resume (dist=%v): %v", resumeDist, err)
		}
		if sum.Interrupted {
			t.Errorf("resume (dist=%v): completed run still marked interrupted", resumeDist)
		}
		jsonl, csvb := readOut(t, dir)
		if !bytes.Equal(jsonl, refJSONL) {
			t.Errorf("resume (dist=%v): JSONL differs from uninterrupted run", resumeDist)
		}
		if !bytes.Equal(csvb, refCSV) {
			t.Errorf("resume (dist=%v): CSV differs from uninterrupted run", resumeDist)
		}
	}
}

// TestObsMerge runs a distributed campaign with telemetry on both sides
// and checks the coordinator's merged registry covers every probe the
// workers ran and every record byte they rendered, the CSV rows the
// coordinator rendered for them included.
func TestObsMerge(t *testing.T) {
	targets := testTargets(t)
	dir := t.TempDir()
	out, csv, ckpt := outPaths(dir)

	coordObs := obs.NewCampaign(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(WorkerConfig{
				Connect: addr,
				Targets: targets,
				Samples: 4,
				Obs:     obs.NewCampaign(1),
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	if _, err := Serve(Config{
		Campaign: campaign.Config{
			Targets:        targets,
			Samples:        4,
			OutputPath:     out,
			CSVPath:        csv,
			CheckpointPath: ckpt,
			Obs:            coordObs,
		},
		Listener:      ln,
		ExpectWorkers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	snap := coordObs.Snapshot()
	if got, want := snap.Workers.Targets, uint64(len(targets)); got != want {
		t.Errorf("merged Targets = %d, want %d", got, want)
	}
	if snap.Workers.Attempts < uint64(len(targets)) {
		t.Errorf("merged Attempts = %d, want >= %d", snap.Workers.Attempts, len(targets))
	}
	if snap.ProbeLatency.Count != snap.Workers.Attempts {
		t.Errorf("merged probe-latency count %d != attempts %d",
			snap.ProbeLatency.Count, snap.Workers.Attempts)
	}
	if snap.Done != int64(len(targets)) {
		t.Errorf("run progress done = %d, want %d", snap.Done, len(targets))
	}
	jsonl, csvb := readOut(t, dir)
	header := bytes.IndexByte(csvb, '\n') + 1
	if snap.Workers.RenderedJSON != uint64(len(jsonl)) || snap.Workers.RenderedCSV != uint64(len(csvb)-header) {
		t.Errorf("rendered %d JSONL and %d CSV bytes, sinks hold %d and %d past the header",
			snap.Workers.RenderedJSON, snap.Workers.RenderedCSV, len(jsonl), len(csvb)-header)
	}
}

// TestRejects drives the handshake's refusal paths: bad version, wrong
// fingerprint, garbage instead of hello. The coordinator must reject all
// three and still run the campaign to completion with an honest worker.
func TestRejects(t *testing.T) {
	targets := testTargets(t)
	dir := t.TempDir()
	out, csv, ckpt := outPaths(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan struct{})
	var serveErr error
	go func() {
		defer close(done)
		_, serveErr = Serve(Config{
			Campaign: campaign.Config{
				Targets:        targets,
				Samples:        4,
				OutputPath:     out,
				CSVPath:        csv,
				CheckpointPath: ckpt,
			},
			Listener: ln,
		})
	}()

	expectReject := func(name string, raw string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(raw)); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		w := newWire(conn)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		m, err := w.recv()
		if err != nil {
			// Connection closed without a readable reject is also a refusal.
			return
		}
		if m.Type != MsgReject {
			t.Errorf("%s: got %q, want reject", name, m.Type)
		}
	}
	fp := campaign.Fingerprint(targets, 4)
	expectReject("garbage", "{{{ not json\n")
	expectReject("bad-version", `{"type":"hello","version":99,"fingerprint":1}`+"\n")
	expectReject("v1-hello", fmt.Sprintf(`{"type":"hello","version":1,"fingerprint":%d}`+"\n", fp))
	expectReject("bad-fingerprint", `{"type":"hello","version":3,"fingerprint":12345}`+"\n")
	expectReject("trailing-garbage", `{"type":"hello","version":3} {"x":1}`+"\n")
	expectReject("non-canonical", fmt.Sprintf(`{"type":"hello", "version":3,"fingerprint":%d}`+"\n", fp))

	if err := RunWorker(WorkerConfig{Connect: addr, Targets: targets, Samples: 4}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	<-done
	if serveErr != nil {
		t.Fatal(serveErr)
	}
}

// TestRejectsOlderProtocol: a hello one protocol version behind, carrying
// the campaign's own fingerprint, is answered with a reject naming both
// versions, and an honest worker still runs the campaign to completion.
func TestRejectsOlderProtocol(t *testing.T) {
	targets := testTargets(t)
	ln := newPipeListener()
	served := make(chan error, 1)
	go func() {
		_, err := Serve(Config{Campaign: campaign.Config{Targets: targets, Samples: 4}, Listener: ln})
		served <- err
	}()

	conn := ln.dial()
	w := newWire(conn)
	hello := &Msg{Type: MsgHello, Version: ProtocolVersion - 1, Fingerprint: campaign.Fingerprint(targets, 4)}
	if err := w.send(hello); err != nil {
		t.Fatal(err)
	}
	m, err := w.recv()
	if err != nil || m.Type != MsgReject {
		t.Fatalf("version %d hello: got %+v, %v; want a reject", hello.Version, m, err)
	}
	if want := fmt.Sprintf("protocol version %d, want %d", ProtocolVersion-1, ProtocolVersion); m.Reason != want {
		t.Errorf("reject reason %q, want %q", m.Reason, want)
	}
	conn.Close()

	if err := RunWorker(WorkerConfig{Conn: ln.dial(), Targets: targets, Samples: 4}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestServeRefusesOversizedCheckpoint: a checkpoint claiming more results
// than the campaign has targets is refused by the coordinator before it
// sizes anything from the count or accepts a worker, like campaign.Run.
func TestServeRefusesOversizedCheckpoint(t *testing.T) {
	targets := testTargets(t)
	out, csv, ckpt := outPaths(t.TempDir())
	ck := campaign.Checkpoint{Fingerprint: campaign.Fingerprint(targets, 4), Done: math.MaxInt}
	if err := ck.Save(ckpt); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = Serve(Config{
		Campaign: campaign.Config{
			Targets: targets, Samples: 4,
			OutputPath: out, CSVPath: csv, CheckpointPath: ckpt, Resume: true,
		},
		Listener: ln,
	})
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(ck.Done)) || !strings.Contains(err.Error(), "24 targets") {
		t.Fatalf("oversized checkpoint not refused with both numbers: %v", err)
	}
}

// fakeConn adapts a byte buffer to net.Conn for wire parsing tests.
type fakeConn struct {
	*bytes.Reader
}

func (fakeConn) Write(b []byte) (int, error)        { return len(b), nil }
func (fakeConn) Close() error                       { return nil }
func (fakeConn) LocalAddr() net.Addr                { return nil }
func (fakeConn) RemoteAddr() net.Addr               { return nil }
func (fakeConn) SetDeadline(time.Time) error        { return nil }
func (fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (fakeConn) SetWriteDeadline(t time.Time) error { return nil }

// TestRecvMalformed pins the parser's rejection matrix.
func TestRecvMalformed(t *testing.T) {
	cases := []struct{ name, input string }{
		{"empty-line", "\n"},
		{"whitespace", "   \n"},
		{"not-json", "hello world\n"},
		{"unknown-type", `{"type":"exploit"}` + "\n"},
		{"trailing-garbage", `{"type":"lease"} extra` + "\n"},
		{"negative-span", `{"type":"span","lo":-3,"hi":4}` + "\n"},
		{"inverted-span", `{"type":"span","lo":9,"hi":2}` + "\n"},
		{"huge-payload", `{"type":"report","json_len":999999999999}` + "\n"},
		{"payload-past-cap", fmt.Sprintf(`{"type":"report","hi":1,"json_len":%d}`+"\n", maxPayloadBytes+1)},
		{"negative-payload", `{"type":"report","hi":1,"json_len":-1}` + "\n"},
		{"wrong-shape", `[1,2,3]` + "\n"},
		{"non-canonical", `{"type":"span","hi":8,"lo":3}` + "\n"},
		{"unterminated", `{"type":"lease"}`},
		{"oversized", `{"type":"reject","reason":"` + strings.Repeat("x", maxLineBytes) + `"}` + "\n"},
	}
	// Past math.MaxInt32 an int field is refused, never wrapped: by the
	// parser where int is 32 bits, by the span and payload checks where
	// it is 64.
	for _, key := range []string{"lo", "json_len"} {
		cases = append(cases, struct{ name, input string }{"above-maxint32-" + key,
			fmt.Sprintf(`{"type":"report","%s":%d}`+"\n", key, uint64(math.MaxInt32)+1)})
	}
	for _, tc := range cases {
		w := newWire(fakeConn{bytes.NewReader([]byte(tc.input))})
		if m, err := w.recv(); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, m)
		}
	}
	// And valid cases so the matrix can't pass vacuously.
	w := newWire(fakeConn{bytes.NewReader([]byte(`{"type":"span","lo":3,"hi":8}` + "\n" +
		fmt.Sprintf(`{"type":"span","lo":%d,"hi":%d}`+"\n", math.MaxInt32, math.MaxInt32)))})
	for _, want := range [][2]int{{3, 8}, {math.MaxInt32, math.MaxInt32}} {
		m, err := w.recv()
		if err != nil || m.Lo != want[0] || m.Hi != want[1] {
			t.Fatalf("valid span rejected: %v %+v", err, m)
		}
	}
}

// FuzzRecv asserts the parser never panics, never accepts a message with
// an out-of-whitelist type or impossible numbers, and accepts only the
// canonical form: any line it accepts re-encodes to exactly its bytes.
func FuzzRecv(f *testing.F) {
	f.Add([]byte(`{"type":"hello","version":5,"fingerprint":42}` + "\n"))
	f.Add([]byte(`{"type":"report","lo":0,"hi":5,"json_len":10}` + "\n"))
	f.Add([]byte(`{"type":"welcome","worker":1,"samples":8,"retries":1}` + "\n"))
	f.Add([]byte(`{"type":"reject","reason":"say \"no\" <&"}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"type":"span","lo":1e99}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newWire(fakeConn{bytes.NewReader(data)})
		for i := 0; i < 4; i++ {
			m, err := w.recv()
			if err != nil {
				return
			}
			switch m.Type {
			case MsgHello, MsgWelcome, MsgReject, MsgLease, MsgSpan, MsgDrain,
				MsgReport, MsgHeartbeat, MsgBye:
			default:
				t.Fatalf("recv accepted unknown type %q", m.Type)
			}
			if m.JSONLen < 0 || m.JSONLen > maxPayloadBytes || m.Lo < 0 || m.Hi < m.Lo {
				t.Fatalf("recv accepted malformed numeric fields: %+v", m)
			}
			line := bytes.TrimSuffix(w.line, []byte("\n"))
			if again, err := appendMsg(nil, m); err != nil || !bytes.Equal(again, line) {
				t.Fatalf("accepted %q, which re-encodes as %q (%v)", line, again, err)
			}
		}
	})
}

// pipeListener hands Serve the server ends of in-memory net.Pipe
// connections, so a test can script a peer byte by byte.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// dial returns the client end of a connection Serve will accept.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	go func() {
		select {
		case l.conns <- server:
		case <-l.done:
			server.Close()
		}
	}()
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestHostileReportCostsItsConnection: a report whose records do not
// decode as the span's — the neighbouring target's record in a target's
// place, a float written non-canonically, one record short or one too
// many, a last line cut short — drops the connection that sent it and its
// span is re-issued. The run does not fail, and an honest worker finishes
// it byte-identical to campaign.Run.
func TestHostileReportCostsItsConnection(t *testing.T) {
	targets := testTargets(t)
	refDir := t.TempDir()
	runSingle(t, targets, refDir)
	refJSONL, refCSV := readOut(t, refDir)
	records := bytes.SplitAfter(refJSONL, []byte("\n"))

	dir := t.TempDir()
	out, csv, ckpt := outPaths(dir)
	ln := newPipeListener()
	var log bytes.Buffer
	served := make(chan error, 1)
	go func() {
		_, err := Serve(Config{
			Campaign: campaign.Config{
				Targets: targets, Samples: 4, Batch: 4,
				OutputPath: out, CSVPath: csv, CheckpointPath: ckpt,
			},
			Listener: ln,
			Log:      &log,
		})
		served <- err
	}()

	// Each case turns the honest records of [lo,hi) into a hostile report.
	cases := []struct {
		name   string
		report func(lo, hi int) []byte
	}{
		{"neighbour's record", func(lo, hi int) []byte {
			return bytes.Join(append([][]byte{records[lo+1]}, records[lo+1:hi]...), nil)
		}},
		{"non-canonical float", func(lo, hi int) []byte {
			rec := records[lo]
			key := []byte(`"fwd_rate":`)
			at := bytes.Index(rec, key) + len(key)
			end := at + bytes.IndexByte(rec[at:], ',')
			v, err := strconv.ParseFloat(string(rec[at:end]), 64)
			if err != nil {
				t.Fatal(err)
			}
			// The same value, as encoding/json would not write it.
			e := strconv.FormatFloat(v, 'e', -1, 64)
			if e == string(rec[at:end]) {
				t.Fatalf("%s is already written in e-notation", rec[at:end])
			}
			bad := append(append(append([]byte(nil), rec[:at]...), e...), rec[end:]...)
			return bytes.Join(append([][]byte{bad}, records[lo+1:hi]...), nil)
		}},
		{"one record short", func(lo, hi int) []byte { return bytes.Join(records[lo:hi-1], nil) }},
		{"one record too many", func(lo, hi int) []byte { return bytes.Join(records[lo:hi+1], nil) }},
		{"trailing partial line", func(lo, hi int) []byte {
			b := bytes.Join(records[lo:hi], nil)
			return b[:len(b)-len(records[hi-1])/2]
		}},
	}
	fp := campaign.Fingerprint(targets, 4)
	for _, tc := range cases {
		conn := ln.dial()
		w := newWire(conn)
		if err := w.send(&Msg{Type: MsgHello, Version: ProtocolVersion, Fingerprint: fp}); err != nil {
			t.Fatal(err)
		}
		if m, err := w.recv(); err != nil || m.Type != MsgWelcome {
			t.Fatalf("handshake: %v %+v", err, m)
		}
		if err := w.send(&Msg{Type: MsgLease}); err != nil {
			t.Fatal(err)
		}
		m, err := w.recv()
		if err != nil || m.Type != MsgSpan {
			t.Fatalf("lease: %v %+v", err, m)
		}
		jsonb := tc.report(m.Lo, m.Hi)
		// The coordinator may close before reading all of it; what matters
		// is that it closes.
		w.sendPayload(&Msg{Type: MsgReport, Lo: m.Lo, Hi: m.Hi, JSONLen: len(jsonb)}, jsonb)
		if m, err := w.recv(); err == nil {
			t.Errorf("%s: connection survived its report and got %+v", tc.name, m)
		}
		conn.Close()
	}

	if err := RunWorker(WorkerConfig{Conn: ln.dial(), Targets: targets, Samples: 4}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("a hostile report failed the run: %v", err)
	}
	if n := strings.Count(log.String(), "lost — 1 leases re-issued"); n != len(cases) {
		t.Errorf("%d hostile connections dropped with their lease re-issued, want %d:\n%s", n, len(cases), log.String())
	}
	for _, why := range []string{
		"is not the record of the target at its position",
		"not in the form this build writes",
		"has 3 records",
		"is one record too many",
		"has no newline",
	} {
		if !strings.Contains(log.String(), why) {
			t.Errorf("coordinator log does not say the report %s:\n%s", why, log.String())
		}
	}
	jsonl, csvb := readOut(t, dir)
	if !bytes.Equal(jsonl, refJSONL) || !bytes.Equal(csvb, refCSV) {
		t.Error("output differs from single-process run after hostile reports")
	}
}

// TestDistSteadyStateAllocs pins what the benchmark's dist-unix-w2 counts,
// allocations per target, where it is made: the survey list through Serve
// and two in-process workers over a unix socket. Once warm, the lease
// protocol, the framing, the payload storage and the coordinator's decode
// and CSV render make no garbage per span; what a pass allocates is its set-up — sinks, sessions,
// the summary, and the arenas, which build a host or a path the first time
// they probe it — about 1 250 objects. The list is long enough to amortize
// that the way the benchmark's 57 600 targets do. With 32-target leases one
// allocation per span (1/32 per target) is close to failing the bound and
// two fail it; the default 512-target leases, which the benchmark runs, get
// the same bound for garbage made per target.
func TestDistSteadyStateAllocs(t *testing.T) {
	targets, err := campaign.Enumerate(campaign.EnumSpec{Seeds: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{32, 0} {
		steadyStateAllocs(t, targets, batch)
	}
}

// steadyStateAllocs runs two Serve passes over targets with two workers and
// Batch batch, and checks the second's allocations per target.
func steadyStateAllocs(t *testing.T, targets []campaign.Target, batch int) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "d.sock")
	pass := func() {
		ln, err := Listen("unix:" + sock)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		werrs := make([]error, 2)
		for i := range werrs {
			conn, err := Dial("unix:" + sock)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				werrs[i] = RunWorker(WorkerConfig{Conn: conn, Targets: targets, Samples: 8})
			}()
		}
		_, err = Serve(Config{
			Campaign: campaign.Config{
				Targets: targets, Samples: 8, Retries: 1, Batch: batch,
				OutputPath: os.DevNull, CSVPath: os.DevNull,
			},
			Listener:      ln,
			ExpectWorkers: 2,
		})
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for i, werr := range werrs {
			if werr != nil {
				t.Fatalf("worker %d: %v", i, werr)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	perTarget := float64(after.Mallocs-before.Mallocs) / float64(len(targets))
	t.Logf("batch %d: %d targets, %d allocations: %.4f per target", batch, len(targets), after.Mallocs-before.Mallocs, perTarget)
	if perTarget > 0.1 {
		t.Errorf("batch %d: a warm %d-target distributed pass allocates %.3f objects per target, want at most 0.1",
			batch, len(targets), perTarget)
	}
}
