// Package dist distributes a campaign across worker processes: a
// coordinator leases contiguous [lo,hi) target-index spans to workers over
// a small line-delimited JSON protocol, workers run the normal arena-
// pooled probe pipeline over their leases and stream back pre-rendered
// JSONL/CSV span bytes plus exact aggregator-shard snapshots, and the
// coordinator re-sequences spans by index through the same campaign
// Emitter a single-process run uses. Determinism does the heavy lifting:
// every probe is a pure function of (target, samples, attempt), shard
// histograms merge by integer bin addition, and spans partition the index
// range — so merged output is byte-identical to a single-process run at
// any worker count, across worker crashes (leases expire and re-issue),
// and across coordinator restarts (the ordinary checkpoint/resume path).
//
// The protocol is strict request/response per worker with asynchronous
// heartbeats:
//
//	worker → hello{version, fingerprint}
//	coord  → welcome{worker, samples, retries, backoff, rate, burst, want_*}
//	         (or reject{reason}, closing)
//	worker → lease{}                  request a span
//	coord  → span{lo, hi}             or drain{} when no work remains
//	worker → report{lo, hi, json_len, csv_len, shard} + raw payload bytes
//	worker → heartbeat{}              any time, keeps leases alive
//	worker → bye{obs}                 after drain; connection closes
//
// Exactly-once emission needs no acknowledgements: a span is owned by its
// index range, the first report of a span wins, and duplicates (a slow
// worker racing its re-issued lease) are dropped — deterministic probing
// makes either copy byte-identical.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/obs"
)

// ProtocolVersion gates hello: mixed-version fleets are refused rather
// than debugged.
const ProtocolVersion = 1

const (
	// maxLineBytes caps one header line: shard snapshots are a few KB, so
	// a megabyte means a corrupt or hostile peer.
	maxLineBytes = 1 << 20
	// maxPayloadBytes caps one span's rendered bytes.
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

// Msg is the protocol's single header shape: one JSON object per line,
// fields populated by type. A report header is followed immediately by
// JSONLen raw JSONL bytes and CSVLen raw CSV bytes — the worker's
// pre-rendered sink output, passed through verbatim so the coordinator
// never re-encodes (or risks re-encoding differently).
type Msg struct {
	Type string `json:"type"`

	// hello / welcome
	Version     int    `json:"version,omitempty"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Worker      int    `json:"worker,omitempty"`

	// reject
	Reason string `json:"reason,omitempty"`

	// welcome: the probe-affecting config the coordinator owns. Retries
	// and backoff must come from here — output bytes record the attempt
	// count, so a worker flag diverging from the coordinator's would
	// silently break byte-identity.
	Samples   int     `json:"samples,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	BackoffNs int64   `json:"backoff_ns,omitempty"`
	Rate      float64 `json:"rate,omitempty"`
	Burst     float64 `json:"burst,omitempty"`
	WantJSONL bool    `json:"want_jsonl,omitempty"`
	WantCSV   bool    `json:"want_csv,omitempty"`

	// span / report
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`

	// report
	JSONLen int                     `json:"json_len,omitempty"`
	CSVLen  int                     `json:"csv_len,omitempty"`
	Shard   *campaign.ShardSnapshot `json:"shard,omitempty"`

	// bye
	Obs *obs.WorkerWire `json:"obs,omitempty"`
}

// wire frames Msgs over a connection: newline-delimited JSON headers with
// optional raw payloads. Reads are single-goroutine; writes are mutexed so
// the worker's heartbeat goroutine can interleave with its report stream
// without tearing a frame.
type wire struct {
	conn net.Conn
	br   *bufio.Reader

	// writeTimeout, when positive, bounds each framed send: a peer that
	// stops reading (a stalled or half-dead worker) fails the write instead
	// of wedging the sender behind TCP backpressure forever.
	writeTimeout time.Duration

	wmu sync.Mutex
	bw  *bufio.Writer
	enc []byte // reused header encode buffer
}

func newWire(conn net.Conn) *wire {
	return &wire{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
}

// send writes one header line and flushes.
func (w *wire) send(m *Msg) error {
	return w.sendPayload(m, nil, nil)
}

// sendPayload writes a header line followed by the raw payload segments,
// then flushes, all as one locked frame.
func (w *wire) sendPayload(m *Msg, jsonb, csvb []byte) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.writeTimeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.writeTimeout))
	}
	w.enc = append(w.enc[:0], b...)
	w.enc = append(w.enc, '\n')
	if _, err := w.bw.Write(w.enc); err != nil {
		return err
	}
	if len(jsonb) > 0 {
		if _, err := w.bw.Write(jsonb); err != nil {
			return err
		}
	}
	if len(csvb) > 0 {
		if _, err := w.bw.Write(csvb); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// recv reads one header line. Oversized lines, trailing garbage, invalid
// JSON, unknown types and absurd payload lengths are all errors — the
// protocol treats any malformed input as a broken peer and drops the
// connection rather than resynchronizing.
func (w *wire) recv() (*Msg, error) {
	line, err := w.readLine()
	if err != nil {
		return nil, err
	}
	var m Msg
	dec := json.NewDecoder(strings.NewReader(line))
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("dist: malformed message: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("dist: trailing garbage after message")
	}
	switch m.Type {
	case MsgHello, MsgWelcome, MsgReject, MsgLease, MsgSpan, MsgDrain,
		MsgReport, MsgHeartbeat, MsgBye:
	default:
		return nil, fmt.Errorf("dist: unknown message type %q", m.Type)
	}
	if m.JSONLen < 0 || m.JSONLen > maxPayloadBytes || m.CSVLen < 0 || m.CSVLen > maxPayloadBytes {
		return nil, fmt.Errorf("dist: unreasonable payload lengths %d/%d", m.JSONLen, m.CSVLen)
	}
	if m.Lo < 0 || m.Hi < m.Lo {
		return nil, fmt.Errorf("dist: malformed span [%d,%d)", m.Lo, m.Hi)
	}
	return &m, nil
}

// readLine reads one newline-terminated header, capped at maxLineBytes.
func (w *wire) readLine() (string, error) {
	var sb strings.Builder
	for {
		frag, err := w.br.ReadSlice('\n')
		sb.Write(frag)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if sb.Len() > maxLineBytes {
				return "", fmt.Errorf("dist: header line exceeds %d bytes", maxLineBytes)
			}
			continue
		}
		return "", err
	}
	if sb.Len() > maxLineBytes {
		return "", fmt.Errorf("dist: header line exceeds %d bytes", maxLineBytes)
	}
	s := strings.TrimSuffix(sb.String(), "\n")
	if strings.TrimSpace(s) == "" {
		return "", fmt.Errorf("dist: empty header line")
	}
	return s, nil
}

// readPayload reads exactly n raw payload bytes following a header.
func (w *wire) readPayload(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(w.br, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
