// Package faultnet is a seeded, deterministic fault injector for
// net.Conn / net.Listener pairs: the adversarial discipline the netem
// catalog applies to the simulated measurement path, turned on the
// campaign's own control plane. Wrap a listener and every accepted
// connection carries a fault plan — a scheduled connection reset
// mid-message, a partial write followed by a stall, added read/write
// latency, a duplicated or truncated protocol line — drawn from a PCG
// stream keyed by (seed, connection index), so a given seed produces the
// same plan for the nth accepted connection on every run. The listener
// itself can refuse its first accepts with a temporary error, exercising
// accept-retry paths.
//
// Reproducibility contract: plans are a pure function of (Config, index).
// Whether a planned fault actually fires depends on traffic (a reset
// scheduled at byte 900 never fires on a connection that moves 100
// bytes), so the Events log records what fired; PlanFor exposes what was
// scheduled. MaxFaults bounds total injected damage — once the budget is
// spent, later connections run clean — which is what lets a chaos soak
// both hurt a system and let it finish.
//
// The wrapper is transport-agnostic and protocol-blind: line faults key
// on '\n' bytes in the written stream (matching any line-delimited
// protocol), byte faults on cumulative transfer counts. Only the wrapped
// side of each connection is perturbed; the peer sees the consequences
// (truncated frames, resets, delay) through an ordinary socket.
package faultnet

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// Kind names one fault class in plans and events.
type Kind string

const (
	// KindReset is a scheduled connection reset: after a planned number of
	// cumulative bytes in one direction, the underlying connection is
	// closed mid-message and the operation fails.
	KindReset Kind = "reset"
	// KindPartialStall is a partial write followed by a stall: a prefix of
	// the caller's buffer is written, the writer blocks for the planned
	// stall, then the connection dies.
	KindPartialStall Kind = "partial-stall"
	// KindDupLine is a duplicated protocol line: the nth written
	// '\n'-terminated line is sent twice, back to back.
	KindDupLine Kind = "dup-line"
	// KindTruncLine is a truncated protocol line: the nth written line is
	// cut short of its terminator and the connection dies.
	KindTruncLine Kind = "trunc-line"
	// KindAcceptError is a transient accept failure: Accept returns an
	// error whose Temporary() is true without touching the backlog.
	KindAcceptError Kind = "accept-error"
)

// Config parameterizes a fault injector. Probabilities are per accepted
// connection; at most one byte-threshold reset, one partial-stall, one
// duplicated line and one truncated line are planned per connection.
type Config struct {
	// Seed fixes every plan. The same Config draws the same plan for the
	// nth connection on every run.
	Seed uint64

	// PReset is the probability a connection gets a scheduled reset at a
	// byte threshold within ByteWindow (read or write side, coin-flipped).
	PReset float64
	// PPartialStall is the probability a connection gets a partial write
	// followed by Stall and a reset, at a byte threshold within ByteWindow.
	PPartialStall float64
	// PDupLine is the probability one of the connection's first written
	// lines is duplicated.
	PDupLine float64
	// PTruncLine is the probability one of the connection's first written
	// lines is truncated before its terminator, followed by a reset.
	PTruncLine float64

	// LatencyMax, when positive, adds a per-connection fixed latency drawn
	// uniformly from [0, LatencyMax) to every read and every write.
	LatencyMax time.Duration
	// Stall is how long a partial write blocks before the reset.
	Stall time.Duration

	// AcceptFailures makes the listener's first N accepts fail with a
	// temporary error (bounded separately from MaxFaults).
	AcceptFailures int
	// MaxFaults caps the total terminal and line faults injected across
	// all connections; once spent, connections run clean. 0 means
	// unlimited — a soak that must terminate should set it.
	MaxFaults int
	// ByteWindow bounds the byte thresholds for reset/partial faults
	// (default 4096): faults land inside the first window of traffic,
	// where the protocol handshake and early spans live.
	ByteWindow int
}

// lineWindow bounds which line index dup/trunc faults target.
const lineWindow = 8

// Chaos is the default chaos-rehearsal profile used by the campaign CLI's
// -faultnet flag: every fault class enabled at rates that hurt a short
// run several times, budget-bounded so the run always finishes.
func Chaos(seed uint64) Config {
	return Config{
		Seed:           seed,
		PReset:         0.5,
		PPartialStall:  0.35,
		PDupLine:       0.25,
		PTruncLine:     0.25,
		LatencyMax:     2 * time.Millisecond,
		Stall:          20 * time.Millisecond,
		AcceptFailures: 2,
		MaxFaults:      12,
		ByteWindow:     4096,
	}
}

func (c Config) byteWindow() int {
	if c.ByteWindow <= 0 {
		return 4096
	}
	return c.ByteWindow
}

// Plan is one connection's drawn fault schedule. Thresholds are
// cumulative byte counts in the connection's own direction; -1 disables
// a fault. Line indices count '\n'-terminated lines written, from 0.
type Plan struct {
	ReadLatency  time.Duration
	WriteLatency time.Duration
	ResetReadAt  int
	ResetWriteAt int
	PartialAt    int
	Stall        time.Duration
	DupLine      int
	TruncLine    int
}

// planFor draws the deterministic plan for connection index idx: a fresh
// PCG stream per (seed, idx), consumed in a fixed order.
func (c Config) planFor(idx int) Plan {
	rng := rand.New(rand.NewPCG(c.Seed, uint64(idx)))
	p := Plan{ResetReadAt: -1, ResetWriteAt: -1, PartialAt: -1, DupLine: -1, TruncLine: -1}
	if c.LatencyMax > 0 {
		p.ReadLatency = time.Duration(rng.Int64N(int64(c.LatencyMax)))
		p.WriteLatency = time.Duration(rng.Int64N(int64(c.LatencyMax)))
	}
	// Each class draws its randomness unconditionally so a probability
	// change never shifts the draws of the classes after it.
	side, at := rng.IntN(2), 1+rng.IntN(c.byteWindow())
	if rng.Float64() < c.PReset {
		if side == 0 {
			p.ResetReadAt = at
		} else {
			p.ResetWriteAt = at
		}
	}
	at = 1 + rng.IntN(c.byteWindow())
	if rng.Float64() < c.PPartialStall {
		p.PartialAt = at
		p.Stall = c.Stall
	}
	line := rng.IntN(lineWindow)
	if rng.Float64() < c.PDupLine {
		p.DupLine = line
	}
	line = rng.IntN(lineWindow)
	if rng.Float64() < c.PTruncLine {
		p.TruncLine = line
	}
	return p
}

// Event records one fault that actually fired.
type Event struct {
	// Conn is the accepted-connection index, or -1 for listener-level
	// faults.
	Conn int
	// Kind is the fault class.
	Kind Kind
	// At is the cumulative byte count (byte faults), line index (line
	// faults) or accept index (accept faults) at which the fault fired.
	At int
}

// Listener wraps a net.Listener with fault injection. Use Wrap.
type Listener struct {
	net.Listener
	cfg Config

	mu      sync.Mutex
	accepts int
	conns   int
	budget  int
	events  []Event
}

// Wrap returns a fault-injecting listener over ln.
func Wrap(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg, budget: cfg.MaxFaults}
}

// Accept injects planned transient failures, then accepts and wraps the
// next connection with its deterministic fault plan.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	idx := l.accepts
	l.accepts++
	if idx < l.cfg.AcceptFailures {
		l.events = append(l.events, Event{Conn: -1, Kind: KindAcceptError, At: idx})
		l.mu.Unlock()
		return nil, tempAcceptError{idx}
	}
	l.mu.Unlock()
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	ci := l.conns
	l.conns++
	l.mu.Unlock()
	return &Conn{Conn: conn, l: l, idx: ci, plan: l.cfg.planFor(ci)}, nil
}

// PlanFor returns the deterministic plan connection index i gets (whether
// or not it has been accepted yet) — the reproducibility surface tests
// pin.
func (l *Listener) PlanFor(i int) Plan { return l.cfg.planFor(i) }

// Events returns a copy of the faults that have fired so far.
func (l *Listener) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// takeBudget consumes one unit of the fault budget, returning false once
// spent (unlimited when MaxFaults is 0).
func (l *Listener) takeBudget() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.MaxFaults == 0 {
		return true
	}
	if l.budget <= 0 {
		return false
	}
	l.budget--
	return true
}

func (l *Listener) record(conn int, kind Kind, at int) {
	l.mu.Lock()
	l.events = append(l.events, Event{Conn: conn, Kind: kind, At: at})
	l.mu.Unlock()
}

// tempAcceptError is the transient failure Accept injects; Temporary()
// is what retrying accept loops key on.
type tempAcceptError struct{ idx int }

func (e tempAcceptError) Error() string {
	return fmt.Sprintf("faultnet: injected transient accept failure %d", e.idx)
}
func (e tempAcceptError) Timeout() bool   { return false }
func (e tempAcceptError) Temporary() bool { return true }

// injectedErr is returned from operations on a connection a fault killed.
type injectedErr struct{ kind Kind }

func (e injectedErr) Error() string { return fmt.Sprintf("faultnet: injected %s", e.kind) }

// IsInjected reports whether err came from an injected fault (as opposed
// to a real transport failure surfacing through the wrapper).
func IsInjected(err error) bool {
	switch err.(type) {
	case injectedErr, tempAcceptError:
		return true
	}
	return false
}

// Conn is one fault-injected connection. Reads and writes are each
// serialized by their own lock (mirroring the one-reader/locked-writers
// discipline of line-protocol users); the zero-latency clean path adds
// two mutex ops per operation.
type Conn struct {
	net.Conn
	l    *Listener
	idx  int
	plan Plan

	rmu    sync.Mutex
	rBytes int
	rDead  bool

	wmu     sync.Mutex
	wBytes  int
	wLine   int
	lineBuf []byte // bytes of the current (unterminated) line, for dup
	wDead   bool
}

// Read applies planned read latency and the read-side reset threshold,
// then reads from the underlying connection (short enough to never
// overrun a pending threshold).
func (c *Conn) Read(b []byte) (int, error) {
	if c.plan.ReadLatency > 0 {
		time.Sleep(c.plan.ReadLatency)
	}
	c.rmu.Lock()
	if c.rDead {
		c.rmu.Unlock()
		return 0, injectedErr{KindReset}
	}
	limit := len(b)
	if at := c.plan.ResetReadAt; at >= 0 {
		rem := at - c.rBytes
		if rem <= 0 {
			if c.l.takeBudget() {
				c.rDead = true
				at := c.rBytes
				c.rmu.Unlock()
				c.l.record(c.idx, KindReset, at)
				c.Conn.Close()
				return 0, injectedErr{KindReset}
			}
			c.plan.ResetReadAt = -1
		} else if rem < limit {
			limit = rem
		}
	}
	c.rmu.Unlock()
	n, err := c.Conn.Read(b[:limit])
	c.rmu.Lock()
	c.rBytes += n
	c.rmu.Unlock()
	return n, err
}

// Write applies planned write latency, then walks the buffer firing
// whichever planned fault comes first in stream order: byte-threshold
// resets and partial-stalls, and line-indexed duplications and
// truncations. Bytes consumed from b are counted in the return value;
// duplicated-line bytes are extra and are not.
func (c *Conn) Write(b []byte) (int, error) {
	if c.plan.WriteLatency > 0 {
		time.Sleep(c.plan.WriteLatency)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wDead {
		return 0, injectedErr{KindReset}
	}
	written := 0
	for written < len(b) {
		seg := b[written:]
		// Earliest byte-threshold fault within this segment, if any.
		byteKind, bytePos := Kind(""), -1
		consider := func(k Kind, at int) {
			if at < 0 {
				return
			}
			rem := at - c.wBytes
			if rem < 0 {
				rem = 0
			}
			if rem <= len(seg) && (bytePos < 0 || rem < bytePos) {
				byteKind, bytePos = k, rem
			}
		}
		consider(KindReset, c.plan.ResetWriteAt)
		consider(KindPartialStall, c.plan.PartialAt)
		// Earliest line fault strictly before the byte fault.
		scan := len(seg)
		if bytePos >= 0 {
			scan = bytePos
		}
		lineKind, linePos, lineIdx, lineStart := Kind(""), -1, -1, 0
		if c.plan.DupLine >= 0 || c.plan.TruncLine >= 0 {
			ln, start := c.wLine, 0
			for i := 0; i < scan; i++ {
				if seg[i] != '\n' {
					continue
				}
				if ln == c.plan.TruncLine {
					lineKind, linePos, lineIdx, lineStart = KindTruncLine, i, ln, start
					break
				}
				if ln == c.plan.DupLine {
					lineKind, linePos, lineIdx, lineStart = KindDupLine, i, ln, start
					break
				}
				ln++
				start = i + 1
			}
		}

		if lineKind != "" {
			if !c.l.takeBudget() {
				// Budget spent: this connection's line faults go inert.
				c.plan.DupLine, c.plan.TruncLine = -1, -1
				continue
			}
			switch lineKind {
			case KindTruncLine:
				// Deliver the line minus its terminator, then die: the
				// peer sees an unterminated, unparseable tail.
				n, err := c.writeSeg(seg[:linePos])
				written += n
				c.l.record(c.idx, KindTruncLine, lineIdx)
				c.wDead = true
				c.Conn.Close()
				if err != nil {
					return written, err
				}
				return written, injectedErr{KindTruncLine}
			case KindDupLine:
				// Capture the line's bytes before writeSeg resets the
				// line buffer: prior-write bytes live in lineBuf only when
				// the line began before this segment (lineStart == 0).
				var dup []byte
				if lineStart == 0 {
					dup = append(dup, c.lineBuf...)
				}
				dup = append(dup, seg[lineStart:linePos+1]...)
				// Deliver through the terminator, then replay the line.
				n, err := c.writeSeg(seg[:linePos+1])
				written += n
				if err != nil {
					return written, err
				}
				c.plan.DupLine = -1
				c.l.record(c.idx, KindDupLine, lineIdx)
				if _, err := c.Conn.Write(dup); err != nil {
					return written, err
				}
				continue
			}
		}

		if bytePos >= 0 && bytePos <= len(seg) {
			if !c.l.takeBudget() {
				if byteKind == KindReset {
					c.plan.ResetWriteAt = -1
				} else {
					c.plan.PartialAt = -1
				}
				continue
			}
			n, err := c.writeSeg(seg[:bytePos])
			written += n
			if err != nil {
				return written, err
			}
			at := c.wBytes
			c.l.record(c.idx, byteKind, at)
			if byteKind == KindPartialStall && c.plan.Stall > 0 {
				time.Sleep(c.plan.Stall)
			}
			c.wDead = true
			c.Conn.Close()
			return written, injectedErr{byteKind}
		}

		n, err := c.writeSeg(seg)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// writeSeg writes p to the underlying connection, maintaining the byte,
// line and current-line-buffer accounting for the bytes that got through.
func (c *Conn) writeSeg(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := c.Conn.Write(p)
	for _, by := range p[:n] {
		c.wBytes++
		if by == '\n' {
			c.wLine++
			c.lineBuf = c.lineBuf[:0]
		} else if c.plan.DupLine >= 0 && len(c.lineBuf) < 1<<16 {
			c.lineBuf = append(c.lineBuf, by)
		}
	}
	return n, err
}
