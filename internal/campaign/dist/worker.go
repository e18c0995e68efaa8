package dist

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/obs"
)

// WorkerConfig parameterizes one worker process's probe loop.
type WorkerConfig struct {
	// Connect is the coordinator address (see Dial); ignored when Conn is
	// set (tests inject pipes).
	Connect string
	Conn    net.Conn

	// Targets must be the same list the coordinator holds — workers
	// enumerate it from the same flags rather than shipping it over the
	// wire, and the fingerprint handshake proves the two agree.
	Targets []campaign.Target
	// Samples per measurement (default 8, the campaign default; part of
	// the fingerprint).
	Samples int

	// Obs, when set, records worker-side telemetry; its totals and exact
	// probe-latency bins ship to the coordinator at bye. Typically
	// obs.NewCampaign(1).
	Obs *obs.Campaign

	// Heartbeat is the liveness send interval (default 2s — far inside
	// the coordinator's lease timeout).
	Heartbeat time.Duration

	// ReconnectBackoff is the base delay between reconnect attempts after
	// a connection loss; attempts back off exponentially with jitter from
	// here (default 100ms). Reconnection is safe by construction: the
	// coordinator re-issues the lost session's leases and first-report-wins
	// drops any duplicate, so output bytes cannot change.
	ReconnectBackoff time.Duration
	// MaxReconnects bounds *consecutive* failed connection attempts (dial
	// or handshake failures) before the worker gives up; a completed
	// handshake resets the count, so a long campaign survives any number
	// of separate disconnects. Default 8; negative disables reconnection
	// entirely (one session, as before this knob existed).
	MaxReconnects int
	// WriteTimeout bounds each framed send toward the coordinator
	// (default 15s), so a dead peer fails the session into the reconnect
	// path instead of wedging it behind TCP backpressure.
	WriteTimeout time.Duration
}

// permanentError marks worker failures that reconnecting cannot fix:
// rejection, config mismatch, or a lease outside the target range.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// errAttemptFailed tells the scheduler's retry loop an attempt failed; the
// failure itself is recorded in the result.
var errAttemptFailed = errors.New("dist: probe attempt failed")

// RunWorker connects to a coordinator and probes leased spans until
// drained. Each leased index runs campaign.ProbeStep — the step a local
// run's pool workers run, so the JSONL records are the ones a local run
// would sink — and each report carries the span's records and nothing
// else: the coordinator renders the CSV and folds the summary from them.
// The retry budget comes from the coordinator's welcome so output bytes
// cannot depend on worker-local flags.
//
// A lost connection is not an error: the worker discards any unsent span
// state, redials with exponential backoff + jitter, and re-runs the
// hello/fingerprint handshake. Exactly-once output is the coordinator's
// job (lease re-issue + first-report-wins); the worker only has to never
// resend stale bytes, which discarding on reconnect guarantees.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Samples == 0 {
		cfg.Samples = 8
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 100 * time.Millisecond
	}
	if cfg.MaxReconnects == 0 {
		cfg.MaxReconnects = 8
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 15 * time.Second
	}
	if len(cfg.Targets) == 0 {
		return fmt.Errorf("dist: worker has no targets")
	}

	st := &workerState{
		cfg:   cfg,
		fp:    campaign.Fingerprint(cfg.Targets, cfg.Samples),
		arena: campaign.NewProbeArena(),
	}
	if cfg.Obs != nil {
		st.arena.SetObserver(cfg.Obs.Worker(0))
	}

	if cfg.Conn != nil {
		// An injected connection cannot be re-dialed; run one session.
		_, err := st.runSession(cfg.Conn)
		return err
	}

	failures := 0 // consecutive attempts that died before welcome
	for {
		var welcomed bool
		conn, err := Dial(cfg.Connect)
		if err == nil {
			welcomed, err = st.runSession(conn)
			if err == nil {
				return nil // drained
			}
			var perm *permanentError
			if errors.As(err, &perm) {
				return err
			}
		}
		if cfg.MaxReconnects < 0 {
			return err
		}
		if welcomed {
			failures = 0
		} else {
			failures++
			if failures > cfg.MaxReconnects {
				return fmt.Errorf("dist: giving up after %d consecutive failed connections: %w", failures, err)
			}
		}
		sleepBackoff(cfg.ReconnectBackoff, failures)
	}
}

// sleepBackoff sleeps base<<n (capped at 5s) with ±50% jitter, decorrelating
// a fleet of workers reconnecting to a coordinator that just came back.
// This randomness touches only connection pacing, never output bytes.
func sleepBackoff(base time.Duration, n int) {
	d := base
	for i := 0; i < n && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	time.Sleep(d)
}

// workerState is the probe machinery that outlives any one connection:
// the arena and the render buffer. The buffer is reset at each span
// receipt, so bytes from a span interrupted by a connection loss can never
// leak into a later report.
type workerState struct {
	cfg   WorkerConfig
	fp    uint64
	arena *campaign.ProbeArena

	jsonBuf []byte
	res     campaign.TargetResult

	sessions int
}

// runSession runs one connection from handshake to drain or death.
// welcomed reports whether the handshake completed (resets the caller's
// consecutive-failure budget); a nil error means the coordinator drained
// this worker and the run is over.
func (st *workerState) runSession(conn net.Conn) (welcomed bool, err error) {
	defer conn.Close()
	cfg := st.cfg
	w := newWire(conn)
	w.writeTimeout = cfg.WriteTimeout

	if err := w.send(&Msg{Type: MsgHello, Version: ProtocolVersion, Fingerprint: st.fp}); err != nil {
		return false, err
	}
	m, err := w.recv()
	if err != nil {
		return false, err
	}
	switch m.Type {
	case MsgWelcome:
	case MsgReject:
		return false, &permanentError{fmt.Errorf("dist: coordinator rejected worker: %s", m.Reason)}
	default:
		return false, fmt.Errorf("dist: expected welcome, got %q", m.Type)
	}
	if m.Samples != cfg.Samples {
		return false, &permanentError{fmt.Errorf("dist: coordinator wants %d samples, worker has %d", m.Samples, cfg.Samples)}
	}
	if st.sessions > 0 {
		if d := cfg.Obs.DistObs(); d != nil {
			d.Reconnects.Inc()
		}
	}
	st.sessions++
	// One index at a time through the scheduler's own retry loop: attempts
	// land in the result's Attempts field, so retry behavior is part of the
	// byte contract and must not exist twice. A terminally failing target
	// is not an error — its result records the failure, exactly as in a
	// single-process run.
	sched := campaign.NewScheduler(campaign.SchedulerConfig{
		Workers: 1, Retries: m.Retries, Obs: cfg.Obs.SchedObs(),
	})
	step := campaign.NewProbeStep(cfg.Targets, cfg.Samples, m.Retries, true, false)
	probe := func(_, index, attempt int) error {
		if !step.Attempt(st.arena, index, attempt, &st.res, nil, &st.jsonBuf, nil) {
			return errAttemptFailed
		}
		return nil
	}

	// Heartbeats ride a separate goroutine through the wire's write lock,
	// so a long probe span cannot starve liveness. A failed heartbeat send
	// also closes the connection: the main loop may be blocked in recv with
	// no deadline (legitimately, awaiting a grant), and the close is what
	// folds a silently dead coordinator into the reconnect path.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if w.send(&Msg{Type: MsgHeartbeat}) != nil {
					conn.Close()
					return
				}
			case <-hbStop:
				return
			}
		}
	}()

	// Spans reported on this session. Within one session the coordinator
	// never sends the same span twice (a completed span is retired, and
	// re-issue happens only after a connection loss, which ends the
	// session), so receiving an already-reported span proves the control
	// line was duplicated in transit. It must be skipped without counting
	// as a lease reply: treating it as one desyncs the request/reply
	// pairing, and the coordinator — whose handler parks deadline-free in
	// grant() on the premise that a lease-requesting worker has nothing in
	// flight — then never reads the reports this worker sends one slot
	// ahead, wedging the run.
	reported := make(map[int]int)

	for {
		if err := w.send(&Msg{Type: MsgLease}); err != nil {
			return true, err
		}
	await:
		m, err := w.recv()
		if err != nil {
			return true, err
		}
		switch m.Type {
		case MsgDrain:
			bye := &Msg{Type: MsgBye}
			if cfg.Obs != nil {
				wire := cfg.Obs.Wire()
				bye.Obs = &wire
			}
			w.send(bye)
			return true, nil
		case MsgSpan:
			if m.Hi > len(cfg.Targets) || m.Lo >= m.Hi {
				return true, &permanentError{fmt.Errorf("dist: leased span [%d,%d) outside target range", m.Lo, m.Hi)}
			}
			if hi, ok := reported[m.Lo]; ok && hi == m.Hi {
				goto await // duplicated span line; the real reply follows
			}
			// Reset the buffer here, not after the report: a previous
			// session may have died mid-span, and its half-built records
			// must never contaminate this span's report.
			st.jsonBuf = st.jsonBuf[:0]
			for i := m.Lo; i < m.Hi; i++ {
				sched.RunIndex(i, probe)
			}
			rep := Msg{Type: MsgReport, Lo: m.Lo, Hi: m.Hi, JSONLen: len(st.jsonBuf)}
			if err := w.sendPayload(&rep, st.jsonBuf); err != nil {
				return true, err
			}
			reported[m.Lo] = m.Hi
		case MsgHeartbeat:
			goto await
		default:
			return true, fmt.Errorf("dist: unexpected message %q awaiting lease", m.Type)
		}
	}
}
