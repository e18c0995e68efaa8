// Package dist distributes a campaign across worker processes: a
// coordinator leases contiguous [lo,hi) target-index spans to workers over
// a small line-delimited JSON protocol, workers run the normal arena-
// pooled probe pipeline over their leases and report each span's JSONL
// records, and the coordinator reads the records back in as a resume
// reads its prefix — decoded and verified against the span's targets
// (campaign.SpanDecoder), rendered as CSV rows, folded into the summary at
// emit — and re-sequences spans by index through the same campaign Emitter
// a single-process run uses. Determinism does the heavy lifting: every
// probe is a pure function of (target, samples, attempt), the summary is a
// pure function of the records, and spans partition the index range — so
// merged output is byte-identical to a single-process run at any worker
// count, across worker crashes (leases expire and re-issue), and across
// coordinator restarts (the ordinary checkpoint/resume path).
//
// The protocol (version 5) is strict request/response per worker with
// asynchronous heartbeats:
//
//	worker → hello{version, fingerprint}
//	coord  → welcome{worker, samples, retries}
//	         (or reject{reason}, closing)
//	worker → lease{}                  request a span
//	coord  → span{lo, hi}             or drain{} when no work remains
//	worker → report{lo, hi, json_len} + the span's JSONL records
//	worker → heartbeat{}              any time, keeps leases alive
//	worker → bye{obs}                 after drain; connection closes
//
// Every message is one '\n'-terminated JSON header line. A report's line is
// followed by json_len bytes of JSONL: one record per target of the span,
// in index order, each '\n'-terminated. A report whose records do not
// decode costs its connection, and its span is re-issued. Headers are
// canonical-only: keys in Msg's field order, zero values omitted,
// numbers and strings as canonjson writes them, which is as encoding/json
// writes them but for one exception (a U+0008 or U+000C in reason). A line
// that appendMsg would not write byte for byte is refused, which is what
// lets the once-per-span messages encode and parse by hand without
// allocating; only obs, once per session, goes through encoding/json.
//
// Exactly-once emission needs no acknowledgements: a span is owned by its
// index range, the first report of a span wins, and duplicates (a slow
// worker racing its re-issued lease) are dropped — deterministic probing
// makes either copy byte-identical.
package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"reorder/internal/canonjson"
	"reorder/internal/obs"
)

// ProtocolVersion gates hello: mixed-version fleets are refused rather
// than debugged. Version 1 carried the shard as a JSON object in the
// report header; version 2's welcome carried a retry backoff and a launch
// rate budget; version 3's bye telemetry carried a heap-compaction count;
// version 4's welcome asked for JSONL and CSV by flag, and its report
// carried CSV rows and a binary aggregator-shard delta after the JSONL.
// Every version's hello has the same shape, so an older worker is refused
// with a reject.
const ProtocolVersion = 5

const (
	// maxLineBytes caps one header line: a bye's telemetry is a few KB, so
	// a megabyte means a corrupt or hostile peer.
	maxLineBytes = 1 << 20
	// maxPayloadBytes caps a span's JSONL.
	maxPayloadBytes = 64 << 20
)

// Message types.
const (
	MsgHello     = "hello"
	MsgWelcome   = "welcome"
	MsgReject    = "reject"
	MsgLease     = "lease"
	MsgSpan      = "span"
	MsgDrain     = "drain"
	MsgReport    = "report"
	MsgHeartbeat = "heartbeat"
	MsgBye       = "bye"
)

// msgTypes is the type whitelist.
var msgTypes = [...]string{MsgHello, MsgWelcome, MsgReject, MsgLease, MsgSpan, MsgDrain,
	MsgReport, MsgHeartbeat, MsgBye}

// Msg is the protocol's single header shape: one JSON object per line,
// fields populated by type, each under the key named beside it and written
// in this order. A report header is followed immediately by its payload:
// the span's JSONL records as the worker rendered them, which the
// coordinator verifies by decoding and then writes verbatim, so it never
// re-encodes a record (or risks re-encoding one differently).
type Msg struct {
	Type string // type

	// hello / welcome
	Version     int    // version
	Fingerprint uint64 // fingerprint
	Worker      int    // worker

	// reject
	Reason string // reason

	// welcome: the probe-affecting config the coordinator owns. Retries
	// must come from here — output bytes record the attempt count, so a
	// worker flag diverging from the coordinator's would silently break
	// byte-identity.
	Samples int // samples
	Retries int // retries

	// span / report
	Lo int // lo
	Hi int // hi

	// report
	JSONLen int // json_len

	// bye
	Obs *obs.WorkerWire // obs
}

// appendMsg appends m's header line, without its newline, to dst. The
// bytes are what json.Marshal writes for Msg with every field but type
// tagged omitempty under its key — the canonical form, and the only one
// parseMsg accepts — but for canonjson's one exception: a U+0008 or U+000C
// in reason is written \u0008 or \u000c, not \b or \f.
func appendMsg(dst []byte, m *Msg) ([]byte, error) {
	known := false
	for _, t := range msgTypes {
		known = known || m.Type == t
	}
	if !known {
		return dst, fmt.Errorf("dist: unknown message type %q", m.Type)
	}
	dst = append(append(append(dst, `{"type":"`...), m.Type...), '"')
	if m.Version != 0 {
		dst = strconv.AppendInt(append(dst, `,"version":`...), int64(m.Version), 10)
	}
	if m.Fingerprint != 0 {
		dst = strconv.AppendUint(append(dst, `,"fingerprint":`...), m.Fingerprint, 10)
	}
	if m.Worker != 0 {
		dst = strconv.AppendInt(append(dst, `,"worker":`...), int64(m.Worker), 10)
	}
	if m.Reason != "" {
		dst = canonjson.AppendString(append(dst, `,"reason":`...), m.Reason)
	}
	if m.Samples != 0 {
		dst = strconv.AppendInt(append(dst, `,"samples":`...), int64(m.Samples), 10)
	}
	if m.Retries != 0 {
		dst = strconv.AppendInt(append(dst, `,"retries":`...), int64(m.Retries), 10)
	}
	if m.Lo != 0 {
		dst = strconv.AppendInt(append(dst, `,"lo":`...), int64(m.Lo), 10)
	}
	if m.Hi != 0 {
		dst = strconv.AppendInt(append(dst, `,"hi":`...), int64(m.Hi), 10)
	}
	if m.JSONLen != 0 {
		dst = strconv.AppendInt(append(dst, `,"json_len":`...), int64(m.JSONLen), 10)
	}
	if m.Obs != nil {
		b, err := json.Marshal(m.Obs)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"obs":`...), b...)
	}
	return append(dst, '}'), nil
}

var errMalformed = errors.New("dist: malformed message")

// parseMsg fills m from one header line, without its newline. It accepts
// only the canonical form: it reads each key's value with a
// canonjson.Cursor, re-appends m into canon and compares, so a reordered,
// repeated, padded or zero-valued key, a number or string written another
// way or an unknown key is refused, and whatever it accepts re-encodes to
// exactly the line. canon is returned for reuse. A warmed parse of a
// once-per-span message allocates nothing; the handshake's reason
// allocates its string and obs goes through encoding/json.
func parseMsg(m *Msg, line, canon []byte) ([]byte, error) {
	*m = Msg{}
	p, ok := bytes.CutPrefix(line, []byte(`{"type":"`))
	end := bytes.IndexByte(p, '"')
	if !ok || end < 0 {
		return canon, errMalformed
	}
	for _, t := range msgTypes {
		if string(p[:end]) == t {
			m.Type = t
		}
	}
	if m.Type == "" {
		return canon, fmt.Errorf("dist: unknown message type %q", p[:end])
	}
	c := canonjson.Cursor(p[end+1:])
	for len(c) > 0 && c[0] == ',' {
		rest, ok := bytes.CutPrefix(c, []byte(`,"`))
		end := bytes.IndexByte(rest, '"')
		if !ok || end < 0 || end+1 >= len(rest) || rest[end+1] != ':' {
			return canon, errMalformed
		}
		key := rest[:end]
		c = rest[end+2:]
		switch string(key) {
		case "version":
			ok = c.Int(&m.Version)
		case "fingerprint":
			ok = c.Uint(&m.Fingerprint)
		case "worker":
			ok = c.Int(&m.Worker)
		case "reason":
			ok = c.String(&m.Reason)
		case "samples":
			ok = c.Int(&m.Samples)
		case "retries":
			ok = c.Int(&m.Retries)
		case "lo":
			ok = c.Int(&m.Lo)
		case "hi":
			ok = c.Int(&m.Hi)
		case "json_len":
			ok = c.Int(&m.JSONLen)
		case "obs":
			// The last key: its value runs to the closing brace.
			if len(c) == 0 {
				return canon, errMalformed
			}
			m.Obs = new(obs.WorkerWire)
			if err := json.Unmarshal(c[:len(c)-1], m.Obs); err != nil {
				return canon, fmt.Errorf("dist: malformed obs: %w", err)
			}
			c = c[len(c)-1:]
		default:
			return canon, fmt.Errorf("dist: unknown message key %q", key)
		}
		if !ok {
			return canon, fmt.Errorf("dist: malformed %s", key)
		}
	}
	if string(c) != "}" {
		return canon, fmt.Errorf("dist: trailing garbage after message")
	}
	canon, err := appendMsg(canon[:0], m)
	if err == nil && !bytes.Equal(canon, line) {
		err = fmt.Errorf("dist: non-canonical message %q", line)
	}
	return canon, err
}

// wire frames Msgs over a connection: newline-delimited JSON headers with
// optional raw payloads. Reads are single-goroutine; writes are mutexed so
// the worker's heartbeat goroutine can interleave with its report stream
// without tearing a frame.
type wire struct {
	conn net.Conn
	br   *bufio.Reader

	line  []byte // readLine's reused buffer
	canon []byte // parseMsg's reused re-encoding
	msg   Msg    // what recv returns, valid until the next recv

	// writeTimeout, when positive, bounds each framed send: a peer that
	// stops reading (a stalled or half-dead worker) fails the write instead
	// of wedging the sender behind TCP backpressure forever.
	writeTimeout time.Duration

	wmu sync.Mutex
	enc []byte // reused send buffer: one whole message, header and payload
}

func newWire(conn net.Conn) *wire {
	return &wire{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
	}
}

// send writes one header line.
func (w *wire) send(m *Msg) error {
	return w.sendPayload(m, nil)
}

// sendPayload writes a header line followed by the raw payload as one
// locked frame. The frame is assembled in the wire's send buffer and leaves
// in a single Write, whatever its size: a message is one write on any
// net.Conn. A buffer grown past maxKeptBuf by an outsized explicit batch is
// dropped after its send rather than kept for the connection's life.
func (w *wire) sendPayload(m *Msg, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	var err error
	if w.enc, err = appendMsg(w.enc[:0], m); err != nil {
		return err
	}
	w.enc = append(append(w.enc, '\n'), payload...)
	if w.writeTimeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.writeTimeout))
	}
	_, err = w.conn.Write(w.enc)
	if cap(w.enc) > maxKeptBuf {
		w.enc = nil
	}
	return err
}

// recv reads one header line. The message is the wire's own and is valid
// until the next recv. Oversized lines, non-canonical or unknown messages
// and absurd payload lengths or spans are all errors — the protocol treats
// any malformed input as a broken peer and drops the connection rather
// than resynchronizing.
func (w *wire) recv() (*Msg, error) {
	line, err := w.readLine()
	if err != nil {
		return nil, err
	}
	m := &w.msg
	if w.canon, err = parseMsg(m, line, w.canon); err != nil {
		return nil, err
	}
	if m.JSONLen < 0 || m.JSONLen > maxPayloadBytes {
		return nil, fmt.Errorf("dist: unreasonable payload length %d", m.JSONLen)
	}
	if m.Lo < 0 || m.Hi < m.Lo {
		return nil, fmt.Errorf("dist: malformed span [%d,%d)", m.Lo, m.Hi)
	}
	return m, nil
}

// readLine reads one newline-terminated header into the wire's reused
// buffer and returns it without the newline, capped at maxLineBytes.
func (w *wire) readLine() ([]byte, error) {
	w.line = w.line[:0]
	for {
		frag, err := w.br.ReadSlice('\n')
		if len(w.line)+len(frag) > maxLineBytes+1 {
			return nil, fmt.Errorf("dist: header line exceeds %d bytes", maxLineBytes)
		}
		w.line = append(w.line, frag...)
		if err == nil {
			return w.line[:len(w.line)-1], nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// readPayload fills buf with the raw payload bytes following a header.
func (w *wire) readPayload(buf []byte) error {
	_, err := io.ReadFull(w.br, buf)
	return err
}

// Listen opens the coordinator's listener: a Unix socket when addr looks
// like a filesystem path (contains a '/' or has the "unix:" prefix), TCP
// otherwise.
func Listen(addr string) (net.Listener, error) {
	if network, a := splitAddr(addr); network == "unix" {
		return net.Listen("unix", a)
	} else {
		return net.Listen("tcp", a)
	}
}

// Dial connects to a coordinator address using Listen's address rules. A
// bounded dial keeps a reconnecting worker's attempts from piling up
// behind an unresponsive address.
func Dial(addr string) (net.Conn, error) {
	network, a := splitAddr(addr)
	d := net.Dialer{Timeout: 10 * time.Second}
	return d.Dial(network, a)
}

func splitAddr(addr string) (network, a string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}
