package campaign

import (
	"fmt"
	"time"

	"reorder/internal/netem"
	"reorder/internal/sim"
	"reorder/internal/simnet"
)

// Scenario is a named, seedable time-varying/adversarial fault schedule:
// a timeline of mid-flow impairment mutations, adversarial middlebox
// elements, or both. Like Impairment and Topology, Build is a pure
// function of the passed stream — edge times and magnitudes jitter per
// target seed, the schedule's shape does not — so a scenario target is as
// hermetic as any other.
type Scenario struct {
	// Name identifies the scenario in target specs; "" is the static case.
	Name string
	// Topology names the routed-graph shape the scenario is designed
	// around ("" = works on any). Route-flap schedules need alternate
	// paths to flap between; the chaos experiment and cmd/campaign use
	// this as the default topology pairing. It is advisory: campaigns may
	// combine any scenario with any topology, and steps that cannot bind
	// are no-ops.
	Topology string
	// Build derives the scenario spec from a per-target stream. A nil
	// return means static.
	Build func(rng *sim.Rand) *simnet.ScenarioSpec

	// fill writes the schedule into an emptied store, drawing from the
	// per-target stream; nil is the static case.
	fill func(st *scenarioStore, rng *sim.Rand)
}

// scenarioStore is the storage one target's scenario is built into: the
// spec, the timeline array its Steps reuse and the middlebox config it
// points at.
type scenarioStore struct {
	spec  simnet.ScenarioSpec
	steps []simnet.TimelineStep
	mb    netem.MiddleboxConfig
}

// step appends timeline steps to the spec.
func (st *scenarioStore) step(steps ...simnet.TimelineStep) {
	st.steps = append(st.steps, steps...)
	st.spec.Steps = st.steps
}

// middlebox places a forward-path middlebox in the spec.
func (st *scenarioStore) middlebox(cfg netem.MiddleboxConfig) {
	st.mb = cfg
	st.spec.Middlebox = &st.mb
}

// buildInto is Build into caller-owned storage: st is overwritten, its
// timeline array reused, and the returned spec (nil for the static case)
// is valid until st's next build.
func (s Scenario) buildInto(st *scenarioStore, rng *sim.Rand) *simnet.ScenarioSpec {
	if s.fill == nil {
		return nil
	}
	st.spec, st.steps = simnet.ScenarioSpec{}, st.steps[:0]
	s.fill(st, rng)
	return &st.spec
}

// burst appends paired on/off steps for op in direction dir: `count`
// bursts of roughly `width` starting near `start`, magnitude prob while
// on, zero while off — loss/corruption/reordering storms with hard edges.
func (st *scenarioStore) burst(rng *sim.Rand, op simnet.ScenarioOp, dir simnet.Dir, start, width, gap time.Duration, count int, prob float64) {
	t := start + time.Duration(rng.IntN(8_000))*time.Microsecond
	for i := 0; i < count; i++ {
		st.step(
			simnet.TimelineStep{At: t, Op: op, Dir: dir, Prob: prob},
			simnet.TimelineStep{At: t + width, Op: op, Dir: dir, Prob: 0},
		)
		t += width + gap
	}
}

// Scenarios returns the registry of named fault schedules a campaign can
// enumerate alongside profiles, impairments and topologies.
//
//   - "rate-ramp" oscillates the access-link rate between full speed and a
//     hard throttle: bandwidth flaps.
//   - "bufferbloat" imposes a throttled, deep-queued access link mid-flow,
//     then drains it: queueing delay ramps up and collapses.
//   - "loss-burst", "corrupt-storm" and "swap-burst" switch loss,
//     corruption and adjacent-swap probabilities between zero and storm
//     levels with hard edges.
//   - "route-flap" (diamond topology) repeatedly repoints the server and
//     probe routes between an 8ms and a 1ms path mid-flow, so in-flight
//     packets are overtaken — route-change reordering, no probability.
//   - "rst-inject" and "fin-inject" place a middlebox on the forward path
//     forging RST (resp. FIN) teardown segments into measured flows.
//   - "seq-hole" swallows data segments mid-path, opening sequence holes.
//   - "header-rewrite" clamps TTL and the receive window and bleaches TOS
//     — rewriting without injection.
func Scenarios() []Scenario {
	scns := []Scenario{
		{Name: "rate-ramp", fill: func(st *scenarioStore, rng *sim.Rand) {
			throttle := int64(1_500_000 + rng.IntN(1_500_000))
			period := 40*time.Millisecond + time.Duration(rng.IntN(15_000))*time.Microsecond
			t := 18*time.Millisecond + time.Duration(rng.IntN(8_000))*time.Microsecond
			for i := 0; i < 5; i++ {
				st.step(
					simnet.TimelineStep{At: t, Op: simnet.OpLinkRate, Dir: simnet.DirForward, Rate: throttle},
					simnet.TimelineStep{At: t, Op: simnet.OpLinkRate, Dir: simnet.DirReverse, Rate: throttle},
					simnet.TimelineStep{At: t + period/2, Op: simnet.OpLinkRate, Dir: simnet.DirForward, Rate: 100_000_000},
					simnet.TimelineStep{At: t + period/2, Op: simnet.OpLinkRate, Dir: simnet.DirReverse, Rate: 100_000_000},
				)
				t += period
			}
		}},
		{Name: "bufferbloat", fill: func(st *scenarioStore, rng *sim.Rand) {
			// A throttled rate with a deep queue: arrivals outpace the
			// drain, the standing queue grows (bloat), then the throttle
			// lifts and the queue collapses.
			on := 20*time.Millisecond + time.Duration(rng.IntN(10_000))*time.Microsecond
			off := on + 60*time.Millisecond + time.Duration(rng.IntN(20_000))*time.Microsecond
			rate, queue := int64(800_000+rng.IntN(700_000)), 64+rng.IntN(64)
			st.step(
				simnet.TimelineStep{At: on, Op: simnet.OpLinkRate, Dir: simnet.DirForward, Rate: rate},
				simnet.TimelineStep{At: on, Op: simnet.OpLinkQueue, Dir: simnet.DirForward, Queue: queue},
				simnet.TimelineStep{At: off, Op: simnet.OpLinkRate, Dir: simnet.DirForward, Rate: 100_000_000},
				simnet.TimelineStep{At: off, Op: simnet.OpLinkQueue, Dir: simnet.DirForward, Queue: 0},
			)
		}},
		{Name: "loss-burst", fill: func(st *scenarioStore, rng *sim.Rand) {
			p := 0.25 + rng.Float64()*0.15
			st.burst(rng, simnet.OpLoss, simnet.DirForward, 20*time.Millisecond, 18*time.Millisecond, 25*time.Millisecond, 3, p)
			st.burst(rng, simnet.OpLoss, simnet.DirReverse, 30*time.Millisecond, 18*time.Millisecond, 25*time.Millisecond, 3, p*0.5)
		}},
		{Name: "corrupt-storm", fill: func(st *scenarioStore, rng *sim.Rand) {
			p := 0.15 + rng.Float64()*0.15
			st.burst(rng, simnet.OpCorrupt, simnet.DirForward, 18*time.Millisecond, 22*time.Millisecond, 30*time.Millisecond, 3, p)
		}},
		{Name: "swap-burst", fill: func(st *scenarioStore, rng *sim.Rand) {
			p := 0.30 + rng.Float64()*0.20
			st.burst(rng, simnet.OpSwap, simnet.DirForward, 15*time.Millisecond, 25*time.Millisecond, 25*time.Millisecond, 4, p)
		}},
		{Name: "route-flap", Topology: "diamond", fill: func(st *scenarioStore, rng *sim.Rand) {
			period := 24*time.Millisecond + time.Duration(rng.IntN(12_000))*time.Microsecond
			t := 15*time.Millisecond + time.Duration(rng.IntN(8_000))*time.Microsecond
			link := 1 // start by flapping onto the fast path: overtaking
			for i := 0; i < 14; i++ {
				st.step(
					simnet.TimelineStep{At: t, Op: simnet.OpRouteFlap, Router: "r0", Dst: "server", Link: link},
					simnet.TimelineStep{At: t, Op: simnet.OpRouteFlap, Router: "r1", Dst: "probe", Link: link},
				)
				link = 1 - link
				t += period
			}
		}},
		{Name: "rst-inject", fill: func(st *scenarioStore, rng *sim.Rand) {
			st.middlebox(netem.MiddleboxConfig{RSTProb: 0.15 + rng.Float64()*0.15})
		}},
		{Name: "fin-inject", fill: func(st *scenarioStore, rng *sim.Rand) {
			st.middlebox(netem.MiddleboxConfig{FINProb: 0.15 + rng.Float64()*0.15})
		}},
		{Name: "seq-hole", fill: func(st *scenarioStore, rng *sim.Rand) {
			// The middlebox starts dormant and the timeline flips it on and
			// off: a window of swallowed segments with hard edges.
			on := 15*time.Millisecond + time.Duration(rng.IntN(10_000))*time.Microsecond
			st.middlebox(netem.MiddleboxConfig{HoleProb: 0.20 + rng.Float64()*0.15, Inactive: true})
			st.step(
				simnet.TimelineStep{At: on, Op: simnet.OpMiddlebox, Dir: simnet.DirForward, Active: true},
				simnet.TimelineStep{At: on + 50*time.Millisecond, Op: simnet.OpMiddlebox, Dir: simnet.DirForward, Active: false},
			)
		}},
		{Name: "header-rewrite", fill: func(st *scenarioStore, rng *sim.Rand) {
			st.middlebox(netem.MiddleboxConfig{
				TTLClamp:    uint8(8 + rng.IntN(8)),
				WindowClamp: uint16(2048 + rng.IntN(2048)),
				RewriteTOS:  true,
				TOS:         0,
			})
		}},
	}
	for i := range scns {
		sc := scns[i]
		scns[i].Build = func(rng *sim.Rand) *simnet.ScenarioSpec {
			return sc.buildInto(new(scenarioStore), rng)
		}
	}
	return scns
}

// scenarios caches the registry; Build closures are stateless.
var scenarios = Scenarios()

// ScenarioNames returns the registry names in registry order.
func ScenarioNames() []string {
	var names []string
	for _, s := range scenarios {
		names = append(names, s.Name)
	}
	return names
}

// scenarioByName resolves a scenario name; "" is the static case.
func scenarioByName(name string) (Scenario, error) {
	if name == "" {
		return Scenario{}, nil
	}
	for _, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("campaign: unknown scenario %q", name)
}

// ScenarioTopology returns the topology a named scenario is designed
// around ("" when it runs anywhere, or the name is unknown).
func ScenarioTopology(name string) string {
	for _, s := range scenarios {
		if s.Name == name {
			return s.Topology
		}
	}
	return ""
}
