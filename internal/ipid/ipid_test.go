package ipid

import (
	"net/netip"
	"testing"
	"testing/quick"

	"reorder/internal/sim"
)

var (
	dstA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	dstB = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

func TestGlobalCounterIncrements(t *testing.T) {
	g := NewGlobalCounter(100)
	for i := 0; i < 5; i++ {
		want := uint16(100 + i)
		dst := dstA
		if i%2 == 1 {
			dst = dstB // destination must not matter
		}
		if got := g.Next(dst); got != want {
			t.Fatalf("Next #%d = %d, want %d", i, got, want)
		}
	}
}

func TestGlobalCounterWraps(t *testing.T) {
	g := NewGlobalCounter(0xffff)
	if g.Next(dstA) != 0xffff || g.Next(dstA) != 0 {
		t.Fatal("counter did not wrap")
	}
}

func TestPerDestinationIndependentCounters(t *testing.T) {
	p := NewPerDestination(10)
	if p.Next(dstA) != 10 || p.Next(dstA) != 11 {
		t.Fatal("dstA counter wrong")
	}
	if p.Next(dstB) != 10 {
		t.Fatal("dstB should start fresh")
	}
	if p.Next(dstA) != 12 {
		t.Fatal("dstA counter affected by dstB traffic")
	}
}

func TestZeroAlwaysZero(t *testing.T) {
	var z Zero
	for i := 0; i < 10; i++ {
		if z.Next(dstA) != 0 {
			t.Fatal("Zero emitted nonzero IPID")
		}
	}
}

func TestRandomVaries(t *testing.T) {
	r := NewRandom(sim.NewRand(1, 1))
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Next(dstA)] = true
	}
	if len(seen) < 50 {
		t.Fatalf("random policy produced only %d distinct IDs in 100 draws", len(seen))
	}
}

func TestSmallRandomIncrementMonotonicShortRun(t *testing.T) {
	s := NewSmallRandomIncrement(0, 8, sim.NewRand(2, 2))
	prev := s.Next(dstA)
	for i := 0; i < 100; i++ {
		cur := s.Next(dstA)
		d := int16(cur - prev)
		if d < 1 || d > 8 {
			t.Fatalf("step = %d, want 1..8", d)
		}
		prev = cur
	}
}

func TestNames(t *testing.T) {
	gens := []Generator{
		NewGlobalCounter(0), NewPerDestination(0), NewRandom(sim.NewRand(1, 2)),
		Zero{}, NewSmallRandomIncrement(0, 4, sim.NewRand(3, 4)),
	}
	seen := map[string]bool{}
	for _, g := range gens {
		n := g.Name()
		if n == "" || seen[n] {
			t.Fatalf("generator name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}

// elicit simulates a prevalidation run: the prober alternates connections,
// and the host stamps each reply from gen. Extra cross-traffic packets can
// be interleaved to model a busy host.
func elicit(gen Generator, n int, crossTraffic int, rng *sim.Rand) []Observation {
	obs := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < crossTraffic; j++ {
			gen.Next(dstB) // host talking to someone else
		}
		obs = append(obs, Observation{Conn: i % 2, ID: gen.Next(dstA)})
	}
	return obs
}

func TestValidateAcceptsGlobalCounter(t *testing.T) {
	r := Validate(elicit(NewGlobalCounter(5000), 16, 0, nil))
	if !r.Usable() {
		t.Fatalf("global counter rejected: %+v", r)
	}
	if r.Score != 1.0 {
		t.Fatalf("Score = %v, want 1.0", r.Score)
	}
}

func TestValidateAcceptsGlobalCounterAcrossWrap(t *testing.T) {
	r := Validate(elicit(NewGlobalCounter(0xfff8), 16, 0, nil))
	if !r.Usable() {
		t.Fatalf("wrapping counter rejected: %+v", r)
	}
}

func TestValidateAcceptsBusyGlobalCounter(t *testing.T) {
	// Moderate cross traffic inflates steps but keeps monotonicity.
	r := Validate(elicit(NewGlobalCounter(0), 16, 5, nil))
	if !r.Usable() {
		t.Fatalf("busy global counter rejected: %+v", r)
	}
}

func TestValidateAcceptsPerDestination(t *testing.T) {
	// Per-destination counters look exactly like a quiet global counter from
	// one vantage; the paper's footnote says they're fine.
	gen := NewPerDestination(100)
	obs := make([]Observation, 0, 16)
	for i := 0; i < 16; i++ {
		gen.Next(dstB)
		obs = append(obs, Observation{Conn: i % 2, ID: gen.Next(dstA)})
	}
	if r := Validate(obs); !r.Usable() {
		t.Fatalf("per-destination rejected: %+v", r)
	}
}

func TestValidateRejectsRandom(t *testing.T) {
	r := Validate(elicit(NewRandom(sim.NewRand(7, 7)), 24, 0, nil))
	if r.Usable() {
		t.Fatalf("random IPIDs accepted: %+v", r)
	}
}

func TestValidateRejectsConstantZero(t *testing.T) {
	r := Validate(elicit(Zero{}, 16, 0, nil))
	if !r.Constant {
		t.Fatal("constant stream not flagged")
	}
	if r.Usable() {
		t.Fatalf("Linux-2.4-style zero IPIDs accepted: %+v", r)
	}
}

func TestValidateRejectsLoadBalancedCounters(t *testing.T) {
	// Two backends, each with its own counter far apart: within-connection
	// steps stay small while cross-connection steps jump wildly — exactly
	// the Fig 3 failure. Conn 0 lands on backend A, conn 1 on backend B.
	a := NewGlobalCounter(1000)
	b := NewGlobalCounter(40000)
	var obs []Observation
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			obs = append(obs, Observation{Conn: 0, ID: a.Next(dstA)})
		} else {
			obs = append(obs, Observation{Conn: 1, ID: b.Next(dstA)})
		}
	}
	if r := Validate(obs); r.Usable() {
		t.Fatalf("split counters behind load balancer accepted: %+v", r)
	}
}

func TestValidateTooFewSamples(t *testing.T) {
	r := Validate(elicit(NewGlobalCounter(0), 2, 0, nil))
	if r.Usable() {
		t.Fatal("2 samples should not be enough to trust a host")
	}
	if Validate(nil).Usable() {
		t.Fatal("empty observation list usable")
	}
}

// Property: a global counter with any starting point and mild cross traffic
// always validates.
func TestQuickGlobalCounterAlwaysUsable(t *testing.T) {
	f := func(start uint16, busy uint8) bool {
		r := Validate(elicit(NewGlobalCounter(start), 12, int(busy%8), nil))
		return r.Usable()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random IPIDs are essentially never usable.
func TestQuickRandomAlmostNeverUsable(t *testing.T) {
	accepted := 0
	for i := uint64(0); i < 200; i++ {
		r := Validate(elicit(NewRandom(sim.NewRand(i, i^0xabcdef)), 16, 0, nil))
		if r.Usable() {
			accepted++
		}
	}
	if accepted > 2 {
		t.Fatalf("random IPID streams accepted %d/200 times", accepted)
	}
}

// TestResetMatchesFresh holds a generator re-initialized in a host's Store
// to a freshly constructed one: after any amount of use, Reset yields the
// same first 64 IDs toward two destinations, interleaved, that the New form
// does — for every stateful policy, on streams seeded alike.
func TestResetMatchesFresh(t *testing.T) {
	draw := func(g Generator) [64]uint16 {
		var ids [64]uint16
		for i := range ids {
			dst := dstA
			if i%3 == 1 {
				dst = dstB
			}
			ids[i] = g.Next(dst)
		}
		return ids
	}
	var st Store
	for _, tc := range []struct {
		name  string
		fresh func(rng *sim.Rand) Generator
		reset func(rng *sim.Rand) Generator
	}{
		{"global-counter",
			func(*sim.Rand) Generator { return NewGlobalCounter(7) },
			func(*sim.Rand) Generator { return st.Global.Reset(7) }},
		{"per-destination",
			func(*sim.Rand) Generator { return NewPerDestination(0xfff0) },
			func(*sim.Rand) Generator { return st.PerDest.Reset(0xfff0) }},
		{"random",
			func(rng *sim.Rand) Generator { return NewRandom(rng) },
			func(rng *sim.Rand) Generator { return st.Random.Reset(rng) }},
		{"small-random-increment",
			func(rng *sim.Rand) Generator { return NewSmallRandomIncrement(3, 9, rng) },
			func(rng *sim.Rand) Generator { return st.Small.Reset(3, 9, rng) }},
	} {
		for round := uint64(0); round < 3; round++ {
			want := draw(tc.fresh(sim.NewRand(5, round)))
			g := tc.reset(sim.NewRand(5, round))
			if got := draw(g); got != want {
				t.Fatalf("%s round %d: reset generator yields %v, fresh %v", tc.name, round, got, want)
			}
			if g.Name() != tc.name {
				t.Fatalf("%s: reset generator is named %q", tc.name, g.Name())
			}
			draw(g) // leave it used: the next round resets a dirty generator
		}
	}
}
