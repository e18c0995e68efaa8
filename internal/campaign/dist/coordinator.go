package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"reorder/internal/campaign"
)

// Config parameterizes a coordinator.
type Config struct {
	// Campaign is the full campaign configuration: targets, samples,
	// retries/backoff/rate (communicated to workers — the coordinator owns
	// every probe-affecting knob so distributed output matches
	// single-process bytes), sinks, checkpoint/resume, telemetry,
	// Interrupt. Batch is the lease granularity in targets (default 32;
	// forced to 1 when RatePerSec is set, so the per-worker token buckets
	// pace individual probes just as the in-process scheduler does) and
	// Window bounds how far leases may run ahead of the emit frontier — the
	// re-sequencing stash never holds more than this many targets (default
	// max(64, 4×Batch×ExpectWorkers)). Extra in-process Sinks are not
	// supported in distributed mode: the coordinator handles rendered bytes,
	// not decoded results.
	Campaign campaign.Config

	// Listener accepts worker connections; Serve closes it. See Listen.
	Listener net.Listener

	// LeaseTimeout expires a silent worker's leases back to the re-issue
	// queue (default 15s). Workers heartbeat far more often; only a dead
	// or wedged worker trips this.
	LeaseTimeout time.Duration
	// ExpectWorkers sizes the per-worker rate budget split and the default
	// window (default 1). More or fewer workers may actually connect; the
	// split is a politeness budget, not a correctness knob.
	ExpectWorkers int
	// Log, when set, receives worker join/loss notices.
	Log io.Writer
}

func (cfg Config) withDefaults() Config {
	if cfg.ExpectWorkers <= 0 {
		cfg.ExpectWorkers = 1
	}
	if cfg.Campaign.Batch <= 0 {
		cfg.Campaign.Batch = 32
	}
	if cfg.Campaign.RatePerSec > 0 {
		cfg.Campaign.Batch = 1
	}
	if cfg.Campaign.Window <= 0 {
		cfg.Campaign.Window = max(64, 4*cfg.Campaign.Batch*cfg.ExpectWorkers)
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 15 * time.Second
	}
	return cfg
}

// pendingSpan is a reported-but-not-yet-emitted span: the worker's
// verbatim rendered bytes plus its exact aggregator delta, stashed until
// the emit frontier reaches lo.
type pendingSpan struct {
	hi          int
	jsonb, csvb []byte
	shard       *campaign.ShardSnapshot
	worker      int
}

type coordinator struct {
	cfg   Config
	em    *campaign.Emitter
	agg   *campaign.Aggregator
	table *leaseTable

	mu     sync.Mutex
	stash  map[int]*pendingSpan
	conns  map[int]net.Conn
	nextID int
	err    error

	// logMu serializes writes to cfg.Log: every worker's handler logs, and
	// the writer is the caller's (a plain buffer in tests).
	logMu sync.Mutex

	wg sync.WaitGroup
}

// Serve runs a distributed campaign to completion (or drain, or failure)
// and returns the merged summary. It owns the full collector side: the
// same Emitter a single-process run uses consumes re-sequenced span
// bytes, so JSONL/CSV/checkpoint output is byte-identical to
// campaign.Run over the same config, and a run interrupted here resumes
// under either mode.
func Serve(cfg Config) (*campaign.Summary, error) {
	cfg = cfg.withDefaults()
	if cfg.Listener == nil {
		return nil, errors.New("dist: Serve requires a Listener")
	}
	if len(cfg.Campaign.Sinks) > 0 {
		return nil, errors.New("dist: extra in-process sinks are unsupported in distributed mode")
	}
	em, err := campaign.NewEmitter(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	agg := campaign.NewAggregator(1)
	replayed := em.Replayed()
	for i := range replayed {
		agg.Shard(0).Add(&replayed[i])
	}
	c := &coordinator{
		cfg:   cfg,
		em:    em,
		agg:   agg,
		table: newLeaseTable(em.Start(), em.End(), cfg.Campaign.Batch, cfg.Campaign.Window),
		stash: map[int]*pendingSpan{},
		conns: map[int]net.Conn{},
	}
	em.StartRun(cfg.ExpectWorkers)

	// The table itself refuses leases from the moment Interrupt closes;
	// this goroutine only wakes what is parked when nothing else moves.
	c.table.interrupt = cfg.Campaign.Interrupt
	stop := make(chan struct{})
	if cfg.Campaign.Interrupt != nil {
		go func() {
			select {
			case <-cfg.Campaign.Interrupt:
				c.table.drain()
			case <-stop:
			}
		}()
	}
	// The accept loop holds a count of its own, so that the Add for a
	// connection accepted as the campaign ends never starts from zero beside
	// the Wait below.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		backoff := 10 * time.Millisecond
		for {
			conn, aerr := cfg.Listener.Accept()
			if aerr != nil {
				// Transient accept failures (EMFILE pressure, an injected
				// faultnet hiccup) are retried with capped backoff — only a
				// persistent listener failure with work remaining strands
				// the campaign and must surface.
				var tmp interface{ Temporary() bool }
				if errors.As(aerr, &tmp) && tmp.Temporary() {
					if d := cfg.Campaign.Obs.DistObs(); d != nil {
						d.AcceptRetries.Inc()
					}
					c.logf("dist: transient accept failure (retrying in %v): %v", backoff, aerr)
					select {
					case <-stop:
						return
					case <-time.After(backoff):
					}
					if backoff *= 2; backoff > time.Second {
						backoff = time.Second
					}
					continue
				}
				select {
				case <-stop:
				default:
					c.fail(fmt.Errorf("dist: accept: %w", aerr))
				}
				return
			}
			backoff = 10 * time.Millisecond
			c.wg.Add(1)
			go c.handle(conn)
		}
	}()

	c.table.waitSettled()
	close(stop)
	c.table.drain() // release handlers still blocked in grant
	cfg.Listener.Close()
	c.wg.Wait()

	c.mu.Lock()
	runErr := c.err
	c.mu.Unlock()
	interrupted, err := em.Finish(runErr)
	if err != nil {
		cfg.Campaign.Trace.RunEnd(em.Emitted(), interrupted, err.Error())
		return nil, err
	}
	cfg.Campaign.Trace.RunEnd(em.Emitted(), interrupted, "")
	sum := agg.Summary()
	sum.Interrupted = interrupted
	return sum, nil
}

// fail records the first fatal error, wakes the lease table, and severs
// every worker so their handlers unwind.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	conns := make([]net.Conn, 0, len(c.conns))
	for _, conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	c.table.fail()
	for _, conn := range conns {
		conn.Close()
	}
}

func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.logMu.Lock()
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
		c.logMu.Unlock()
	}
}

// handle owns one worker connection from handshake to bye. Any read
// error, timeout or protocol violation drops the connection; the deferred
// revoke returns the worker's leases to the re-issue queue, which is the
// entire crash-recovery story.
func (c *coordinator) handle(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	w := newWire(conn)
	// A worker that stops reading must fail our sends rather than wedging
	// this handler (and the span it holds) behind TCP backpressure.
	w.writeTimeout = c.cfg.LeaseTimeout

	conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTimeout))
	m, err := w.recv()
	if err != nil || m.Type != MsgHello {
		w.send(&Msg{Type: MsgReject, Reason: "expected hello"})
		return
	}
	if m.Version != ProtocolVersion {
		w.send(&Msg{Type: MsgReject, Reason: fmt.Sprintf("protocol version %d, want %d", m.Version, ProtocolVersion)})
		return
	}
	if m.Fingerprint != c.em.Fingerprint() {
		// The worker enumerated a different target list or sample count:
		// its probes would be valid answers to a different campaign.
		w.send(&Msg{Type: MsgReject, Reason: fmt.Sprintf("campaign fingerprint %x, want %x", m.Fingerprint, c.em.Fingerprint())})
		return
	}

	c.mu.Lock()
	id := c.nextID
	c.nextID++
	c.conns[id] = conn
	c.mu.Unlock()
	c.logf("dist: worker %d connected (%s)", id, conn.RemoteAddr())
	clean := false
	defer func() {
		c.mu.Lock()
		delete(c.conns, id)
		c.mu.Unlock()
		n := c.table.revoke(id)
		if n > 0 {
			if d := c.cfg.Campaign.Obs.DistObs(); d != nil {
				d.LeaseReissues.Add(uint64(n))
			}
		}
		if !clean {
			c.logf("dist: worker %d lost — %d leases re-issued", id, n)
		}
	}()

	ccfg := c.cfg.Campaign
	welcome := &Msg{
		Type:      MsgWelcome,
		Worker:    id,
		Samples:   c.em.Samples(),
		Retries:   ccfg.Retries,
		BackoffNs: ccfg.Backoff.Nanoseconds(),
		WantJSONL: c.em.HasJSONL(),
		WantCSV:   c.em.HasCSV(),
	}
	if ccfg.RatePerSec > 0 {
		welcome.Rate = ccfg.RatePerSec / float64(c.cfg.ExpectWorkers)
		welcome.Burst = float64(ccfg.Burst) / float64(c.cfg.ExpectWorkers)
		if welcome.Burst < 1 {
			welcome.Burst = 1
		}
	}
	if err := w.send(welcome); err != nil {
		return
	}

	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTimeout))
		m, err := w.recv()
		if err != nil {
			return
		}
		switch m.Type {
		case MsgHeartbeat:
			// Liveness only; the deadline reset above is its entire effect.
		case MsgLease:
			// grant blocks with no deadline pending — a worker waiting for
			// work holds no leases, so its silence risks nothing.
			conn.SetReadDeadline(time.Time{})
			sp, ok := c.table.grant(id)
			if !ok {
				w.send(&Msg{Type: MsgDrain})
				c.awaitBye(w, conn, id)
				clean = true
				return
			}
			if sched := c.cfg.Campaign.Obs.SchedObs(); sched != nil {
				sched.SpanClaims.Inc()
			}
			c.cfg.Campaign.Trace.SpanClaim(id, sp.lo, sp.hi)
			if err := w.send(&Msg{Type: MsgSpan, Lo: sp.lo, Hi: sp.hi}); err != nil {
				return
			}
		case MsgReport:
			jsonb, rerr := w.readPayload(m.JSONLen)
			if rerr != nil {
				return
			}
			csvb, rerr := w.readPayload(m.CSVLen)
			if rerr != nil {
				return
			}
			if err := c.report(m, jsonb, csvb, id); err != nil {
				c.fail(err)
				return
			}
		case MsgBye:
			c.absorbObs(id, m)
			clean = true
			return
		default:
			return
		}
	}
}

// awaitBye drains the tail of a worker connection after sending drain:
// the worker's bye carries its telemetry contribution.
func (c *coordinator) awaitBye(w *wire, conn net.Conn, id int) {
	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTimeout))
		m, err := w.recv()
		if err != nil {
			return
		}
		switch m.Type {
		case MsgBye:
			c.absorbObs(id, m)
			return
		case MsgHeartbeat:
		default:
			return
		}
	}
}

func (c *coordinator) absorbObs(id int, m *Msg) {
	if m.Obs == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.cfg.Campaign.Obs.AbsorbRemote(id, *m.Obs); err != nil {
		// Telemetry is advisory; a malformed contribution is logged, not
		// allowed to fail a finished campaign.
		c.logf("dist: worker %d telemetry rejected: %v", id, err)
	}
}

// report settles one completed span: first completion wins (duplicates
// from re-issued leases are dropped), the payload is stashed by lo, and
// every span now contiguous with the emit frontier is merged into the
// aggregator and emitted — shard deltas fold exactly at emit time, so
// the summary always covers precisely the emitted prefix, including
// after a drain.
func (c *coordinator) report(m *Msg, jsonb, csvb []byte, worker int) error {
	if !c.table.complete(m.Lo, m.Hi) {
		return nil // stale duplicate of a re-issued lease
	}
	if m.Shard == nil {
		return fmt.Errorf("dist: worker %d report for [%d,%d) missing shard snapshot", worker, m.Lo, m.Hi)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.stash[m.Lo] = &pendingSpan{hi: m.Hi, jsonb: jsonb, csvb: csvb, shard: m.Shard, worker: worker}
	advanced := false
	for {
		lo := c.em.Emitted()
		p := c.stash[lo]
		if p == nil {
			break
		}
		if err := c.agg.Shard(0).MergeSnapshot(*p.shard); err != nil {
			return fmt.Errorf("dist: worker %d span [%d,%d): %w", p.worker, lo, p.hi, err)
		}
		if err := c.em.EmitSpan(lo, p.hi, p.jsonb, p.csvb, nil); err != nil {
			return err
		}
		delete(c.stash, lo)
		advanced = true
	}
	if advanced {
		c.table.advance(c.em.Emitted())
	}
	return nil
}
