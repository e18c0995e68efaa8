package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// shardText renders the summary a single shard aggregates to.
func shardText(s *Shard) string {
	var b bytes.Buffer
	(&Aggregator{shards: []*Shard{s}}).Summary().WriteText(&b)
	return b.String()
}

// AppendDelta → MergeDelta of per-span deltas must yield the exact summary
// a single shard would have built — the invariant the distributed
// coordinator's merge rests on — with the delta shard reset and reused
// between spans as the worker does.
func TestShardDeltaRoundTrip(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	arena := NewProbeArena()
	whole := NewShard()
	delta := NewShard()
	merged := NewShard()

	var res TargetResult
	var buf []byte
	spanSize := 5
	for lo := 0; lo < len(targets); lo += spanSize {
		hi := min(lo+spanSize, len(targets))
		for i := lo; i < hi; i++ {
			arena.ProbeTargetInto(&res, targets[i], 4, 0)
			whole.Add(&res)
			delta.Add(&res)
		}
		buf = delta.AppendDelta(buf[:0])
		if err := merged.MergeDelta(buf); err != nil {
			t.Fatal(err)
		}
		delta.Reset()
	}
	if w, m := shardText(whole), shardText(merged); w != m {
		t.Fatalf("merged delta summary differs:\nwhole:\n%s\nmerged:\n%s", w, m)
	}
}

// deltaBuilder assembles a delta by hand, field by field, in the encoding
// shardwire.go documents.
type deltaBuilder []byte

func (b deltaBuilder) u(vs ...uint64) deltaBuilder {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func (b deltaBuilder) f(vs ...float64) deltaBuilder {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func (b deltaBuilder) s(str string) deltaBuilder { return append(b.u(uint64(len(str))), str...) }

// counters is the six shard counters, all zero.
func counters() deltaBuilder { return deltaBuilder{}.u(0, 0, 0, 0, 0, 0) }

// malformedDeltas are the deltas MergeDelta must refuse, by name.
func malformedDeltas(tb testing.TB) map[string][]byte {
	valid := validDelta(tb)
	return map[string][]byte{
		"counter beyond int": deltaBuilder{}.u(uint64(math.MaxInt)+1, 0, 0, 0, 0, 0).u(0, 0, 0, 0, 0, 0),
		"counter overflow":   counters().u(0, 0, 0, 0).u(2).s("zero-ipid").u(math.MaxInt).s("zero-ipid").u(1).u(0),
		"hist n beyond int":  counters().u(uint64(math.MaxInt)+1).f(0.5, 0.5).u(1, 0, uint64(math.MaxInt)+1).u(0, 0, 0, 0, 0),
		"count mismatch":     counters().u(3).f(0.5, 0.5).u(1, 0, 2).u(0, 0, 0, 0, 0),
		"bin counts wrap":    counters().u(1).f(0.5, 0.5).u(2, 0, 1<<63, 1, 1<<63+1).u(0, 0, 0, 0, 0),
		"empty bin":          counters().u(1).f(0.5, 0.5).u(2, 0, 1, 1, 0).u(0, 0, 0, 0, 0),
		"bin out of range":   counters().u(1).f(0.5, 0.5).u(1, 999, 1).u(0, 0, 0, 0, 0),
		"pairs beyond bins":  counters().u(1).f(0.5, 0.5).u(257, 0, 1).u(0, 0, 0, 0, 0),
		"NaN min":            counters().u(1).f(math.NaN(), 0.5).u(1, 0, 1).u(0, 0, 0, 0, 0),
		"min above max":      counters().u(1).f(0.75, 0.25).u(1, 0, 1).u(0, 0, 0, 0, 0),
		"zero exclusion":     counters().u(0, 0, 0, 0).u(1).s("zero-ipid").u(0).u(0),
		"all-zero test":      counters().u(0, 0, 0, 0).u(0).u(1).s("single").u(0, 0, 0, 0, 0, 0),
		"test hist mismatch": counters().u(0, 0, 0, 0).u(0).u(1).s("single").u(1, 0, 0, 0).u(2).f(0.5, 0.5).u(1, 0, 1).u(0),
		"varint overflow":    append(counters(), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"truncated":          valid[:len(valid)-1],
		"trailing":           append(append([]byte(nil), valid...), 0),
		"empty":              nil,
	}
}

// validDelta encodes a shard over every result of mixedCampaign: every
// test, exclusions, errors, retries, sequence statistics.
func validDelta(tb testing.TB) []byte {
	_, results := mixedCampaign(tb)
	s := NewShard()
	for i := range results {
		s.Add(&results[i])
	}
	return s.AppendDelta(nil)
}

func TestShardMergeDeltaRejectsMalformed(t *testing.T) {
	if err := NewShard().MergeDelta(counters().u(0, 0, 0, 0, 0, 0)); err != nil {
		t.Fatalf("the empty shard's delta refused: %v", err)
	}
	if err := NewShard().MergeDelta(validDelta(t)); err != nil {
		t.Fatalf("a real delta refused: %v", err)
	}
	for name, b := range malformedDeltas(t) {
		if err := NewShard().MergeDelta(b); err == nil {
			t.Errorf("%s: malformed shard delta accepted", name)
		}
	}
}

// TestShardDeltaManyKeys: a delta naming 1<<16 distinct exclusion reasons
// — half a megabyte, inside the report's shard cap — merges in one pass
// over its keys, and a reset shard forgets them.
func TestShardDeltaManyKeys(t *testing.T) {
	const keys = 1 << 16
	b := counters().u(0, 0, 0, 0).u(keys)
	for i := 0; i < keys; i++ {
		b = b.s(fmt.Sprintf("r%05d", i)).u(1)
	}
	b = b.u(0)
	s := NewShard()
	if err := s.MergeDelta(b); err != nil {
		t.Fatal(err)
	}
	if n := len((&Aggregator{shards: []*Shard{s}}).Summary().DCTExcluded); n != keys {
		t.Fatalf("%d exclusion reasons merged, want %d", n, keys)
	}
	s.Reset()
	if len(s.dctExcluded) != 0 {
		t.Fatalf("reset shard keeps %d exclusion keys", len(s.dctExcluded))
	}
}

// TestShardDeltaBinPairsBounded: a histogram claiming more bin pairs than
// it has bins is refused before the pairs are read, so a hostile count
// cannot grow the shard's reused snapshot.
func TestShardDeltaBinPairsBounded(t *testing.T) {
	const pairs = 300 // the path-rate histogram has 256 bins
	b := counters().u(pairs).f(0.5, 0.5).u(pairs)
	for i := 0; i < pairs; i++ {
		b = b.u(uint64(i), 1)
	}
	b = b.u(0, 0, 0, 0, 0)
	s := NewShard()
	if err := s.MergeDelta(b); err == nil || !strings.Contains(err.Error(), "300 bin pairs for 256 bins") {
		t.Fatalf("oversized bin list: %v", err)
	}
	if cap(s.counts.Bins) != 0 {
		t.Fatalf("refused delta grew the snapshot to %d entries", cap(s.counts.Bins))
	}
}

// TestShardDeltaAllocs pins the per-span cost of the delta codec at zero:
// a worker encoding its warmed delta shard and a coordinator checking it
// on a reset scratch shard make no garbage.
func TestShardDeltaAllocs(t *testing.T) {
	_, results := mixedCampaign(t)
	src, dst := NewShard(), NewShard()
	for i := range results {
		src.Add(&results[i])
	}
	buf := src.AppendDelta(nil)
	if err := dst.MergeDelta(buf); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = src.AppendDelta(buf[:0])
		dst.Reset()
		if err := dst.MergeDelta(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendDelta + MergeDelta on warmed shards: %.1f allocations, want 0", allocs)
	}
	if s, d := shardText(src), shardText(dst); s != d {
		t.Fatalf("reset-and-merged shard differs from its source:\n%s\n%s", s, d)
	}
}

// FuzzShardDelta holds MergeDelta to "refuse or round-trip, never panic":
// whatever delta it accepts into a fresh shard, that shard re-encodes to a
// delta a second fresh shard accepts with the same summary. The bytes
// themselves depend on map order, so the summaries are what is compared.
func FuzzShardDelta(f *testing.F) {
	f.Add(validDelta(f))
	f.Add([]byte(counters().u(0, 0, 0, 0, 0, 0)))
	for _, b := range malformedDeltas(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		first := NewShard()
		if err := first.MergeDelta(b); err != nil {
			return
		}
		again := NewShard()
		if err := again.MergeDelta(first.AppendDelta(nil)); err != nil {
			t.Fatalf("accepted %x, whose re-encoding is refused: %v", b, err)
		}
		if a, c := shardText(first), shardText(again); a != c {
			t.Fatalf("accepted %x; re-encoded summary differs:\n%s\n%s", b, a, c)
		}
	})
}
