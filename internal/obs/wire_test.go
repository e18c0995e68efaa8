package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"reorder/internal/stats"
)

// wrappedCounts claims one sample in bins whose counts sum to 2^64 + 1:
// one more than n, modulo 2^64.
var wrappedCounts = stats.HistogramCounts{N: 1, Bins: []uint64{0, 1 << 63, 1, 1<<63 + 1}}

func TestAbsorbCountsRefusesWrappedBins(t *testing.T) {
	var r Recorder
	r.Observe(100)
	before := MergeRecorders(&r).CountsSnapshot()
	if err := r.absorbCounts(wrappedCounts, 7); err == nil {
		t.Fatal("bin counts that wrap to n accepted")
	}
	if after := MergeRecorders(&r).CountsSnapshot(); r.Count() != 1 || r.Sum() != 100 || !reflect.DeepEqual(after, before) {
		t.Fatalf("refused snapshot changed the recorder: count %d, sum %d, bins %+v", r.Count(), r.Sum(), after)
	}
}

// TestAbsorbRemoteRefusalChangesNothing: a snapshot whose latency bins are
// refused adds none of its totals, scheduler or dist counters either.
func TestAbsorbRemoteRefusalChangesNothing(t *testing.T) {
	remote := NewCampaign(1)
	remote.Worker(0).Targets.Add(5)
	remote.Worker(0).ProbeNanos.Observe(1000)
	coord := NewCampaign(2)
	if err := coord.AbsorbRemote(0, remote.Wire()); err != nil {
		t.Fatal(err)
	}
	before := coord.Snapshot()

	bad := remote.Wire()
	bad.Scheduler.Retries, bad.Dist.Reconnects = 3, 2
	bad.ProbeLatency = wrappedCounts
	if err := coord.AbsorbRemote(1, bad); err == nil {
		t.Fatal("wrapped latency bins accepted")
	}
	if after := coord.Snapshot(); after != before {
		t.Fatalf("refused snapshot changed the registry:\n%+v\n%+v", before, after)
	}
}

// FuzzAbsorbRemote decodes arbitrary JSON as a worker's telemetry and
// absorbs it into a fresh registry: never a panic; a refusal changes
// nothing; an accepted recorder counts exactly its bins, and its quantiles
// rise with p and stay within [min, max].
func FuzzAbsorbRemote(f *testing.F) {
	real := NewCampaign(1)
	for _, ns := range []int64{0, 1, 900, 1e6, 5e9} {
		real.Worker(0).ProbeNanos.Observe(ns)
	}
	real.Sched.Retries.Add(4)
	huge := WorkerWire{ProbeLatency: stats.HistogramCounts{N: 1, Bins: []uint64{3, 1},
		MinBits: math.Float64bits(5), MaxBits: math.Float64bits(1e300)}}
	for _, w := range []WorkerWire{real.Wire(), {ProbeLatency: wrappedCounts}, huge, {}} {
		b, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WorkerWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		c := NewCampaign(1)
		if err := c.AbsorbRemote(0, w); err != nil {
			if s, fresh := c.Snapshot(), NewCampaign(1).Snapshot(); s != fresh {
				t.Fatalf("refused %s (%v), and the registry changed:\n%+v", data, err, s)
			}
			return
		}
		r := &c.Worker(0).ProbeNanos
		var sum, carry uint64
		for b := range r.counts {
			var k uint64
			sum, k = bits.Add64(sum, r.counts[b].Load(), 0)
			carry |= k
		}
		if carry != 0 || sum != r.Count() {
			t.Fatalf("accepted %s: bins sum to %d (carry %d), count %d", data, sum, carry, r.Count())
		}
		l := c.Snapshot().ProbeLatency
		if l.Count == 0 {
			return
		}
		if !(l.MinNs <= l.P50Ns && l.P50Ns <= l.P90Ns && l.P90Ns <= l.P99Ns && l.P99Ns <= l.MaxNs) {
			t.Fatalf("accepted %s: min %v p50 %v p90 %v p99 %v max %v", data, l.MinNs, l.P50Ns, l.P90Ns, l.P99Ns, l.MaxNs)
		}
	})
}
