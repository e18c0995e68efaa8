package packet

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// bigDatagram builds a TCP datagram with n payload bytes (DF clear).
func bigDatagram(t testing.TB, n int, id uint16) []byte {
	t.Helper()
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	raw, err := AppendTCP(nil, &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: id},
		&TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 1, Flags: FlagACK, Window: 100}, payload)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestFragmentSmallPassesThrough(t *testing.T) {
	d := bigDatagram(t, 100, 1)
	frags, err := Fragment(d, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || !bytes.Equal(frags[0], d) {
		t.Fatal("small datagram was modified")
	}
}

func TestFragmentSplitsAndMarks(t *testing.T) {
	d := bigDatagram(t, 1000, 7)
	frags, err := Fragment(d, 576)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("fragments = %d", len(frags))
	}
	for i, f := range frags {
		if len(f) > 576 {
			t.Fatalf("fragment %d is %d bytes > mtu", i, len(f))
		}
		// Every fragment must carry the original IPID and a valid header
		// checksum.
		if got := uint16(f[4])<<8 | uint16(f[5]); got != 7 {
			t.Fatalf("fragment %d IPID = %d", i, got)
		}
		if Checksum(f[:20]) != 0 {
			t.Fatalf("fragment %d header checksum invalid", i)
		}
		mf := f[6]>>5&FlagMF != 0
		if i < len(frags)-1 && !mf {
			t.Fatalf("fragment %d missing MF", i)
		}
		if i == len(frags)-1 && mf {
			t.Fatal("last fragment has MF set")
		}
	}
}

func TestFragmentRejectsDF(t *testing.T) {
	payload := make([]byte, 1000)
	raw, err := AppendTCP(nil, &IPv4Header{Src: probeAddr, Dst: serverAddr, Flags: FlagDF},
		&TCPHeader{SrcPort: 1, DstPort: 2}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fragment(raw, 576); err == nil {
		t.Fatal("DF datagram fragmented")
	}
}

func TestFragmentRejectsTinyMTU(t *testing.T) {
	if _, err := Fragment(bigDatagram(t, 100, 1), 24); err == nil {
		t.Fatal("mtu 24 accepted")
	}
}

func TestReassembleInOrder(t *testing.T) {
	d := bigDatagram(t, 2000, 9)
	frags, err := Fragment(d, 576)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	var out []byte
	for i, f := range frags {
		got, err := r.Input(f)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(frags)-1 && got != nil {
			t.Fatal("reassembly completed early")
		}
		out = got
	}
	if out == nil {
		t.Fatal("reassembly never completed")
	}
	if !bytes.Equal(out, d) {
		t.Fatal("reassembled datagram differs from the original")
	}
	// The result must decode cleanly (checksums intact end to end).
	p, err := Decode(out)
	if err != nil {
		t.Fatalf("reassembled datagram undecodable: %v", err)
	}
	if len(p.Payload) != 2000 {
		t.Fatalf("payload %d bytes", len(p.Payload))
	}
	if r.Pending() != 0 {
		t.Fatal("reassembler leaked state")
	}
}

func TestReassembleAnyOrder(t *testing.T) {
	// The point of the IPID design: fragment arrival order is irrelevant.
	d := bigDatagram(t, 3000, 11)
	frags, err := Fragment(d, 576)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(frags))
		r := NewReassembler()
		var out []byte
		for _, i := range perm {
			got, err := r.Input(frags[i])
			if err != nil {
				t.Fatal(err)
			}
			if got != nil {
				out = got
			}
		}
		if !bytes.Equal(out, d) {
			t.Fatalf("permutation %v failed to reassemble", perm)
		}
	}
}

func TestReassembleInterleavedDatagrams(t *testing.T) {
	// Two datagrams fragment concurrently; distinct IPIDs keep them apart.
	d1 := bigDatagram(t, 1200, 21)
	d2 := bigDatagram(t, 1200, 22)
	f1, _ := Fragment(d1, 576)
	f2, _ := Fragment(d2, 576)
	r := NewReassembler()
	var got [][]byte
	for i := 0; i < len(f1) || i < len(f2); i++ {
		for _, fs := range [][][]byte{f1, f2} {
			if i < len(fs) {
				if out, err := r.Input(fs[i]); err != nil {
					t.Fatal(err)
				} else if out != nil {
					got = append(got, out)
				}
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("reassembled %d datagrams, want 2", len(got))
	}
	if !bytes.Equal(got[0], d1) && !bytes.Equal(got[1], d1) {
		t.Fatal("d1 not reconstructed")
	}
}

func TestReassembleDuplicateFragment(t *testing.T) {
	d := bigDatagram(t, 1000, 31)
	frags, _ := Fragment(d, 576)
	r := NewReassembler()
	if _, err := r.Input(frags[0]); err != nil {
		t.Fatal(err)
	}
	if out, err := r.Input(frags[0]); err != nil || out != nil {
		t.Fatal("duplicate fragment mishandled")
	}
	out, err := r.Input(frags[1])
	if err != nil || !bytes.Equal(out, d) {
		t.Fatalf("reassembly after duplicate failed: %v", err)
	}
}

func TestReassemblerEviction(t *testing.T) {
	r := NewReassembler()
	r.MaxPending = 4
	for id := uint16(0); id < 10; id++ {
		frags, _ := Fragment(bigDatagram(t, 1000, id), 576)
		if _, err := r.Input(frags[0]); err != nil { // never complete
			t.Fatal(err)
		}
	}
	if r.Pending() > 4 {
		t.Fatalf("Pending = %d, want <= 4", r.Pending())
	}
}

func TestReassemblerRejectsGarbage(t *testing.T) {
	r := NewReassembler()
	if _, err := r.Input([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestNonFragmentPassesThrough(t *testing.T) {
	d := bigDatagram(t, 100, 41)
	r := NewReassembler()
	out, err := r.Input(d)
	if err != nil || !bytes.Equal(out, d) {
		t.Fatal("whole datagram should pass through unchanged")
	}
}

// Property: fragment-then-reassemble is the identity for any payload size
// and MTU, under any arrival permutation.
func TestQuickFragmentRoundTrip(t *testing.T) {
	f := func(seed uint64, size uint16, mtuSel uint8) bool {
		n := int(size)%4000 + 1
		mtus := []int{68, 296, 576, 1006, 1500}
		mtu := mtus[int(mtuSel)%len(mtus)]
		d := bigDatagram(t, n, uint16(seed))
		frags, err := Fragment(d, mtu)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 42))
		perm := rng.Perm(len(frags))
		r := NewReassembler()
		var out []byte
		for _, i := range perm {
			got, err := r.Input(frags[i])
			if err != nil {
				return false
			}
			if got != nil {
				out = got
			}
		}
		return bytes.Equal(out, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFragmentReassemble(b *testing.B) {
	d := bigDatagram(b, 8000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frags, err := Fragment(d, 1500)
		if err != nil {
			b.Fatal(err)
		}
		r := NewReassembler()
		for _, f := range frags {
			if _, err := r.Input(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}
