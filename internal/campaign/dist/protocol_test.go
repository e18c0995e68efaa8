package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"reorder/internal/obs"
	"reorder/internal/stats"
)

// jsonMsg is Msg as encoding/json would carry it: every field under its
// key, omitted when zero. appendMsg must write exactly what json.Marshal
// writes for it.
type jsonMsg struct {
	Type        string          `json:"type"`
	Version     int             `json:"version,omitempty"`
	Fingerprint uint64          `json:"fingerprint,omitempty"`
	Worker      int             `json:"worker,omitempty"`
	Reason      string          `json:"reason,omitempty"`
	Samples     int             `json:"samples,omitempty"`
	Retries     int             `json:"retries,omitempty"`
	Lo          int             `json:"lo,omitempty"`
	Hi          int             `json:"hi,omitempty"`
	JSONLen     int             `json:"json_len,omitempty"`
	Obs         *obs.WorkerWire `json:"obs,omitempty"`
}

// codecCases are messages of every type, with the edge values of each
// field: zero and extreme integers, and reasons that need escaping.
func codecCases() []Msg {
	wire := obs.WorkerWire{ProbeSumNs: 12345}
	wire.Totals.Targets = 7
	wire.ProbeLatency = stats.HistogramCounts{N: 3, MinBits: math.Float64bits(1.5), MaxBits: math.Float64bits(9), Bins: []uint64{2, 1, 40, 2}}
	return []Msg{
		{Type: MsgHello, Version: ProtocolVersion, Fingerprint: math.MaxUint64},
		{Type: MsgHello, Version: math.MaxInt, Fingerprint: 1},
		{Type: MsgHello, Version: math.MinInt},
		{Type: MsgWelcome, Worker: math.MaxInt, Samples: 8},
		{Type: MsgWelcome, Samples: 4, Retries: 3},
		{Type: MsgWelcome, Retries: math.MaxInt},
		{Type: MsgReject, Reason: `protocol version 2, want 3`},
		{Type: MsgReject, Reason: `say "no" <b>&amp; ünïcode ✓ \ back` + "\x01\n\t  "},
		{Type: MsgLease},
		{Type: MsgSpan, Hi: 1},
		{Type: MsgSpan, Lo: 3, Hi: 8},
		{Type: MsgSpan, Lo: math.MaxInt - 1, Hi: math.MaxInt},
		{Type: MsgDrain},
		{Type: MsgHeartbeat},
		{Type: MsgReport, Lo: 32, Hi: 64, JSONLen: 9728},
		{Type: MsgReport, Hi: 1, JSONLen: 1},
		{Type: MsgReport, Lo: 7, Hi: 7},
		{Type: MsgBye},
		{Type: MsgBye, Obs: &wire},
	}
}

// TestAppendMsgMatchesJSON holds the hand encoder to encoding/json, byte
// for byte, and the parser to the encoder: every line parses back to the
// message it came from.
func TestAppendMsgMatchesJSON(t *testing.T) {
	var got Msg
	var canon []byte
	for _, m := range codecCases() {
		line, err := appendMsg(nil, &m)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		want, err := json.Marshal(jsonMsg(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Errorf("appendMsg:\n %s\njson.Marshal:\n %s", line, want)
		}
		if canon, err = parseMsg(&got, line, canon); err != nil {
			t.Errorf("%s: refused: %v", line, err)
		} else if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: parsed as %+v", line, got)
		}
	}
	if _, err := appendMsg(nil, &Msg{Type: "exploit"}); err == nil {
		t.Error("unknown type encoded")
	}
}

// TestParseRefusesNonCanonical: the parser accepts the encoder's form and
// nothing else, however valid the JSON.
func TestParseRefusesNonCanonical(t *testing.T) {
	for _, line := range []string{
		`{"type":"span","hi":8,"lo":3}`,            // key order
		`{"type":"span","lo":3,"lo":3,"hi":8}`,     // repeated key
		`{"type":"span","lo":0,"hi":8}`,            // zero value written
		`{"type":"span", "lo":3,"hi":8}`,           // whitespace
		`{"type":"span","lo":03,"hi":8}`,           // leading zero
		`{"type":"span","lo":3.0,"hi":8}`,          // float for an int
		`{"type":"span","lo":-0,"hi":8}`,           // negative zero
		`{"type":"span","lo":3,"hi":8,}`,           // trailing comma
		`{"type":"span","lo":3,"hi":8}}`,           // trailing brace
		`{"type":"span","lo":3,"hi":8,"x":1}`,      // unknown key
		`{"type":"reject","reason":"\` + `u0041"}`, // an escape encoding/json does not write
		`{"type":"reject","reason":"open}`,
		`{"type":"bye","obs":null}`,
		`{"type":"bye","obs":{"totals":{}}}`,
		`{"type":"hello","fingerprint":18446744073709551616}`, // beyond uint64
		`{"type":"span","lo":9223372036854775808}`,            // beyond int64
		`{"type":"Lease"}`,
		`{ "type":"lease"}`,
		`{"type":"lease"`,
		``,
	} {
		var m Msg
		if _, err := parseMsg(&m, []byte(line), nil); err == nil {
			t.Errorf("accepted %s as %+v", line, m)
		}
	}
}

// TestWelcomeRefusesRetiredKeys: the pacing fields a version-2 welcome
// carried, and the sink flags of a version-4 welcome, are unknown keys now,
// so a welcome that still writes one is refused, however canonical the
// rest of it.
func TestWelcomeRefusesRetiredKeys(t *testing.T) {
	for _, c := range []struct{ key, line string }{
		{"backoff_ns", `{"type":"welcome","worker":1,"samples":8,"retries":1,"backoff_ns":50000000}`},
		{"rate", `{"type":"welcome","worker":1,"samples":8,"retries":1,"rate":0.5}`},
		{"burst", `{"type":"welcome","worker":1,"samples":8,"retries":1,"burst":1}`},
		{"want_jsonl", `{"type":"welcome","worker":1,"samples":8,"retries":1,"want_jsonl":true}`},
	} {
		var m Msg
		_, err := parseMsg(&m, []byte(c.line), nil)
		if want := `unknown message key "` + c.key + `"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error naming %s", c.line, err, want)
		}
	}
}

// writeCounter is a net.Conn that discards what is written and counts the
// Write calls.
type writeCounter struct {
	fakeConn
	writes int
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes++
	return len(b), nil
}

// TestWireSendOneWrite: a message leaves in one Write however large its
// payload — a 512-target report is about 155 KB, several times a socket
// buffer — and a warm send allocates nothing.
func TestWireSendOneWrite(t *testing.T) {
	conn := &writeCounter{}
	w := newWire(conn)
	jsonb := make([]byte, 155<<10)
	rep := Msg{Type: MsgReport, Lo: 512, Hi: 1024, JSONLen: len(jsonb)}
	send := func() {
		if err := w.sendPayload(&rep, jsonb); err != nil {
			t.Fatal(err)
		}
		if err := w.send(&Msg{Type: MsgLease}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if conn.writes != 2 {
		t.Fatalf("a report and a lease took %d writes, want 2", conn.writes)
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("a warm report and lease make %.1f allocations, want 0", allocs)
	}

	// An outsized report leaves in one write too, but its buffer is not kept.
	big := make([]byte, maxKeptBuf)
	conn.writes = 0
	if err := w.sendPayload(&Msg{Type: MsgReport, Lo: 0, Hi: 4096, JSONLen: len(big)}, big); err != nil {
		t.Fatal(err)
	}
	if conn.writes != 1 || w.enc != nil {
		t.Errorf("a %d-byte report took %d writes and kept a %d-byte send buffer, want 1 and none",
			len(big), conn.writes, cap(w.enc))
	}
}

// TestWireAllocs pins the per-span protocol cost the benchmark counts:
// encoding and parsing every message sent once per span allocates nothing.
func TestWireAllocs(t *testing.T) {
	var m Msg
	var enc, canon []byte
	for _, src := range []Msg{
		{Type: MsgLease},
		{Type: MsgSpan, Lo: 1 << 20, Hi: 1<<20 + 32},
		{Type: MsgReport, Lo: 1 << 20, Hi: 1<<20 + 32, JSONLen: 9728},
		{Type: MsgHeartbeat},
		{Type: MsgDrain},
	} {
		round := func() {
			var err error
			if enc, err = appendMsg(enc[:0], &src); err != nil {
				t.Fatal(err)
			}
			if canon, err = parseMsg(&m, enc, canon); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%s: appendMsg + parseMsg make %.1f allocations, want 0", src.Type, allocs)
		}
	}
}
