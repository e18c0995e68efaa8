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
	// retries (communicated to workers — the coordinator owns every
	// probe-affecting knob so distributed output matches single-process
	// bytes), output files, checkpoint/resume, telemetry, Interrupt. Batch
	// is the lease granularity in targets and Window bounds how far leases
	// may run ahead of the emit frontier — the stash of reported spans never
	// holds more than this many targets; zero resolves either through the
	// rule campaign.Run uses, with ExpectWorkers as the worker count and
	// campaign.LeaseSpanCap (512) in place of the pool's 32 as the cap on an
	// unset Batch (see campaign.SchedulerConfig).
	Campaign campaign.Config

	// Listener accepts worker connections; Serve closes it. See Listen.
	Listener net.Listener

	// LeaseTimeout expires a silent worker's leases back to the re-issue
	// queue (default 15s). Workers heartbeat far more often; only a dead
	// or wedged worker trips this.
	LeaseTimeout time.Duration
	// ExpectWorkers sizes the default lease and window (default 1). More or
	// fewer workers may actually connect; it is a sizing hint, not a
	// correctness knob.
	ExpectWorkers int
	// Log, when set, receives worker join/loss notices.
	Log io.Writer
}

func (cfg Config) withDefaults() Config {
	if cfg.ExpectWorkers <= 0 {
		cfg.ExpectWorkers = 1
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 15 * time.Second
	}
	return cfg
}

// reportedSpan is a span's payload in the table, held until the emit
// frontier reaches the span: the worker's JSONL records verbatim, the same
// records decoded, and their CSV rows rendered here. jsonb and csvb alias
// buf; buf and results are free-list storage.
type reportedSpan struct {
	jsonb, csvb []byte
	results     []campaign.TargetResult
	buf         []byte
}

type coordinator struct {
	cfg   Config
	em    *campaign.Emitter
	agg   *campaign.Aggregator
	table *campaign.SpanTable[reportedSpan]

	mu     sync.Mutex
	conns  map[int]net.Conn
	nextID int

	// free holds the storage reports are read and decoded into. A payload
	// comes back when its span is emitted or dropped, so the list never
	// holds more than the window's stash plus one per connection, each at
	// most maxKeptBuf of bytes.
	freeMu sync.Mutex
	free   []reportedSpan

	// logMu serializes writes to cfg.Log: every worker's handler logs, and
	// the writer is the caller's (a plain buffer in tests).
	logMu sync.Mutex

	wg sync.WaitGroup
}

// Serve runs a distributed campaign to completion (or drain, or failure)
// and returns the merged summary. It owns the full emit side: the
// same Emitter a single-process run uses consumes re-sequenced span
// bytes, so JSONL/CSV/checkpoint output is byte-identical to
// campaign.Run over the same config, and a run interrupted here resumes
// under either mode.
func Serve(cfg Config) (*campaign.Summary, error) {
	cfg = cfg.withDefaults()
	if cfg.Listener == nil {
		return nil, errors.New("dist: Serve requires a Listener")
	}
	em, err := campaign.NewEmitter(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	agg := campaign.NewAggregator(1)
	agg.AddAll(em.Replayed())
	c := &coordinator{cfg: cfg, em: em, agg: agg, conns: map[int]net.Conn{}}
	ccfg := cfg.Campaign
	c.table = campaign.NewSpanTable(em.Start(), em.End(), campaign.LeaseSpanCap, campaign.SchedulerConfig{
		Workers: cfg.ExpectWorkers,
		Window:  ccfg.Window,
		Batch:   ccfg.Batch,
		Obs:     ccfg.Obs.SchedObs(),
		Quiesce: ccfg.Interrupt,
	}, c.emit)
	em.StartRun(cfg.ExpectWorkers)

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
					case <-c.table.Done():
						return
					case <-time.After(backoff):
					}
					if backoff *= 2; backoff > time.Second {
						backoff = time.Second
					}
					continue
				}
				// Our own Close below comes after the run has settled,
				// when Fail is a no-op.
				c.table.Fail(fmt.Errorf("dist: accept: %w", aerr))
				return
			}
			backoff = 10 * time.Millisecond
			c.wg.Add(1)
			go c.handle(conn)
		}
	}()

	runErr := c.table.Wait()
	cfg.Listener.Close()
	if runErr != nil {
		// A failed run severs every worker so their handlers unwind; any
		// other end leaves them to take their drain and say bye.
		c.mu.Lock()
		for _, conn := range c.conns {
			conn.Close()
		}
		c.mu.Unlock()
	}
	c.wg.Wait()

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
		n := c.table.Revoke(id)
		if n > 0 {
			if d := c.cfg.Campaign.Obs.DistObs(); d != nil {
				d.LeaseReissues.Add(uint64(n))
			}
		}
		if !clean {
			c.logf("dist: worker %d lost — %d leases re-issued", id, n)
		}
	}()

	welcome := &Msg{
		Type:    MsgWelcome,
		Worker:  id,
		Samples: c.em.Samples(),
		Retries: c.cfg.Campaign.Retries,
	}
	if err := w.send(welcome); err != nil {
		return
	}

	// dec is where each report's records are proven sound before the span
	// completes: a report that does not decode costs this connection, and
	// the span is re-issued, instead of failing the run when it reaches the
	// emit.
	dec := c.em.SpanDecoder()
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
			sp, ok := c.table.Grant(id)
			if !ok {
				w.send(&Msg{Type: MsgDrain})
				c.awaitBye(w, conn, id)
				clean = true
				return
			}
			c.cfg.Campaign.Trace.SpanClaim(id, sp.Lo, sp.Hi)
			if err := w.send(&Msg{Type: MsgSpan, Lo: sp.Lo, Hi: sp.Hi}); err != nil {
				return
			}
		case MsgReport:
			// Checked before anything is sized from it: the header is input.
			if m.Hi > len(c.cfg.Campaign.Targets) {
				c.logf("dist: worker %d report for [%d,%d) dropped: past the %d targets", id, m.Lo, m.Hi, len(c.cfg.Campaign.Targets))
				return
			}
			p := c.getPayload(m.JSONLen, m.Hi-m.Lo)
			if err := w.readPayload(p.jsonb); err != nil {
				c.putPayload(p)
				return
			}
			if p.csvb, err = dec.Decode(m.Lo, p.jsonb, p.results, p.csvb); err != nil {
				c.logf("dist: worker %d report for [%d,%d) dropped: %v", id, m.Lo, m.Hi, err)
				c.putPayload(p)
				return
			}
			if o := c.cfg.Campaign.Obs; o != nil {
				// The worker rendered the records; the rows are rendered
				// here on its behalf.
				o.Worker(id).RenderedCSVBytes.Add(uint64(len(p.csvb)))
			}
			// First completion wins: a stale duplicate of a re-issued
			// lease is dropped, and the handler that reports the frontier
			// span emits it and every reported span contiguous with it.
			if !c.table.Complete(campaign.Span{Lo: m.Lo, Hi: m.Hi}, p) {
				c.putPayload(p)
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

// emit is the table's in-order drain: a span's records fold into the
// aggregator exactly at emit time, so the summary always covers precisely
// the emitted prefix, including after a drain.
func (c *coordinator) emit(sp campaign.Span, p reportedSpan) error {
	defer c.putPayload(p)
	s := c.agg.Shard(0)
	for i := range p.results {
		s.Add(&p.results[i])
	}
	return c.em.EmitSpan(sp.Lo, sp.Hi, p.jsonb, p.csvb)
}

// getPayload returns free-list storage for a report of n JSONL bytes over k
// targets: jsonb is n bytes long, csvb empty with room for n bytes behind
// it — a record's CSV row is shorter than its JSONL line — and results
// holds k. It grows storage only when none on the list is big enough.
func (c *coordinator) getPayload(n, k int) reportedSpan {
	var p reportedSpan
	c.freeMu.Lock()
	if last := len(c.free) - 1; last >= 0 {
		p = c.free[last]
		c.free = c.free[:last]
	}
	c.freeMu.Unlock()
	if cap(p.buf) < 2*n {
		p.buf = make([]byte, 2*n)
	}
	if cap(p.results) < k {
		p.results = make([]campaign.TargetResult, k)
	}
	p.buf = p.buf[:cap(p.buf)]
	p.jsonb, p.csvb, p.results = p.buf[:n], p.buf[n:n:2*n], p.results[:k]
	return p
}

// maxKeptBuf bounds the buffers the free list and a wire's send buffer keep.
// A default lease's report is about 155 KB of JSONL at 512 targets, and its
// payload storage twice that, so a megabyte still covers explicit batches of
// well over a thousand.
const maxKeptBuf = 1 << 20

// maxKeptResults bounds the decoded records a kept payload holds: twice what
// an honest report within maxKeptBuf carries.
const maxKeptResults = 4096

// putPayload returns p's storage to the free list unless it is bigger than
// maxKeptBuf or maxKeptResults: one outsized report must not pin its
// storage for the rest of the run.
func (c *coordinator) putPayload(p reportedSpan) {
	if cap(p.buf) > maxKeptBuf || cap(p.results) > maxKeptResults {
		return
	}
	c.freeMu.Lock()
	c.free = append(c.free, reportedSpan{buf: p.buf, results: p.results})
	c.freeMu.Unlock()
}
