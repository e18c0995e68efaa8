package campaign

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/sim"
	"reorder/internal/simnet"
)

// Target is one unit of campaign work: one measurement technique run once
// against one simulated host reached over one impaired path. Everything a
// probe needs is derivable from these fields, which is what makes campaign
// results independent of scheduling.
type Target struct {
	// Index is the position in the campaign's target list.
	Index int `json:"index"`
	// Name identifies the target in reports ("profile/impairment/test/sN").
	Name string `json:"name"`
	// Profile is a host profile name from Profiles().
	Profile string `json:"profile"`
	// Impairment is a path impairment name from Impairments().
	Impairment string `json:"impairment"`
	// Test is the technique: "single", "dual", "syn" or "transfer".
	Test string `json:"test"`
	// Seed drives every stochastic choice the target's scenario makes.
	Seed uint64 `json:"seed"`
	// Topology names a routed-graph topology from Topologies(). Empty means
	// the classic point-to-point path — the default for every pre-topology
	// campaign, which is why the field is append-only and omitted when
	// empty everywhere it is serialized.
	Topology string `json:"topology,omitempty"`
	// Scenario names a fault schedule from Scenarios(). Empty means the
	// static scenario; like Topology the field is append-only and omitted
	// when empty everywhere it is serialized, so pre-scenario campaigns
	// stay byte-identical.
	Scenario string `json:"scenario,omitempty"`
}

// defaultName derives the canonical target name.
func (t Target) defaultName() string { return string(t.appendName(nil)) }

// appendName appends the canonical target name,
// "profile/impairment/test/sSEED[@topology][#scenario]", to dst.
func (t Target) appendName(dst []byte) []byte {
	dst = append(append(append(append(append(dst, t.Profile...), '/'), t.Impairment...), '/'), t.Test...)
	dst = strconv.AppendUint(append(dst, "/s"...), t.Seed, 10)
	if t.Topology != "" {
		dst = append(append(dst, '@'), t.Topology...)
	}
	if t.Scenario != "" {
		dst = append(append(dst, '#'), t.Scenario...)
	}
	return dst
}

// Tests are the four techniques, in the survey's round-robin order.
var Tests = core.Tests

// LBPool is the pseudo-profile name for a load-balanced backend pool (the
// survey's "popular site" analogue).
const LBPool = "lb-pool"

// catalog and lbBackends cache the host catalog and the load-balanced
// pool's backend prototypes: profiles are immutable values (their IPID
// closures are stateless and their Ports slices are read-only), so the
// probe hot path can share one copy instead of rebuilding the catalog per
// target. Callers that mutate a profile (ObjectSize sizing) copy first.
var (
	catalog    = host.Catalog()
	lbBackends = []host.Profile{
		host.FreeBSD4(), host.Linux22(), host.Windows2000(), host.FreeBSD4(),
	}
)

// Profiles returns the names enumerable as campaign targets: the full
// host catalog plus the load-balanced pool.
func Profiles() []string {
	var names []string
	for _, p := range catalog {
		names = append(names, p.Name)
	}
	return append(names, LBPool)
}

// resolveProfile maps a profile name to the scenario skeleton it implies.
// The returned config's Backends share the cached prototype slice; callers
// that modify backend profiles must copy it (see ProbeTargetInto).
func resolveProfile(name string) (simnet.Config, error) {
	if name == LBPool {
		return simnet.Config{Backends: lbBackends}, nil
	}
	for _, p := range catalog {
		if p.Name == name {
			return simnet.Config{Server: p}, nil
		}
	}
	return simnet.Config{}, fmt.Errorf("campaign: unknown profile %q", name)
}

// Impairment is a named, seedable path condition.
type Impairment struct {
	// Name identifies the impairment in target specs.
	Name string
	// Build derives the directional path specs from a per-target stream.
	Build func(rng *sim.Rand) (fwd, rev simnet.PathSpec)

	// buildInto is Build with the mechanism configs the specs point at
	// (trunk, multipath, ARQ) written into caller-owned storage: the specs
	// are valid until st's next build.
	buildInto func(st *pathStore, rng *sim.Rand) (fwd, rev simnet.PathSpec)
}

// pathStore is the storage behind one target's path specs: every
// mechanism config a PathSpec refers to by pointer or slice.
type pathStore struct {
	trunk  [2]netem.TrunkConfig // forward, reverse
	multi  netem.MultiPathConfig
	delays [2]time.Duration
	arq    netem.ARQConfig
}

// fastPath is the base spec shared by all impairments: a fast access link
// so serialization never dominates the impairment under test.
func fastPath() simnet.PathSpec {
	return simnet.PathSpec{LinkRate: 100_000_000}
}

// Impairments returns the registry of named path conditions a campaign
// can enumerate: the §V reordering mechanisms plus clean and lossy
// controls. All are deterministic functions of the passed stream.
func Impairments() []Impairment {
	ims := []Impairment{
		{Name: "clean", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			return fastPath(), fastPath()
		}},
		{Name: "swap-light", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			fwd, rev := fastPath(), fastPath()
			fwd.SwapProb = 0.02 + rng.Float64()*0.02
			rev.SwapProb = fwd.SwapProb * 0.35
			return fwd, rev
		}},
		{Name: "swap-heavy", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			fwd, rev := fastPath(), fastPath()
			fwd.SwapProb = 0.10 + rng.Float64()*0.10
			rev.SwapProb = fwd.SwapProb * 0.35
			return fwd, rev
		}},
		{Name: "trunk", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			fwd, rev := fastPath(), fastPath()
			prob := 0.05 + rng.ExpFloat64()*0.10
			if prob > 0.5 {
				prob = 0.5
			}
			mean := 600 + rng.ExpFloat64()*900
			st.trunk[0] = netem.TrunkConfig{FanOut: 2, RateBps: 622_000_000, BurstProb: prob, MeanBurstBytes: mean}
			st.trunk[1] = netem.TrunkConfig{FanOut: 2, RateBps: 622_000_000, BurstProb: prob * 0.35, MeanBurstBytes: mean}
			fwd.Trunk, rev.Trunk = &st.trunk[0], &st.trunk[1]
			return fwd, rev
		}},
		{Name: "multipath", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			fwd, rev := fastPath(), fastPath()
			spread := time.Duration(50+rng.IntN(200)) * time.Microsecond
			st.delays = [2]time.Duration{time.Millisecond, time.Millisecond + spread}
			st.multi = netem.MultiPathConfig{Delays: st.delays[:]}
			fwd.MultiPath = &st.multi
			return fwd, rev
		}},
		{Name: "arq", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			fwd, rev := fastPath(), fastPath()
			fwd.LinkRate = 1_000_000_000
			st.arq = netem.ARQConfig{
				FrameErrorRate:  0.05 + rng.Float64()*0.10,
				RetransmitDelay: 2 * time.Millisecond,
			}
			fwd.ARQ = &st.arq
			return fwd, rev
		}},
		{Name: "lossy", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			fwd, rev := fastPath(), fastPath()
			fwd.Loss = 0.01 + rng.Float64()*0.02
			rev.Loss = fwd.Loss
			return fwd, rev
		}},
		{Name: "jitter", buildInto: func(st *pathStore, rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			fwd, rev := fastPath(), fastPath()
			fwd.Jitter = time.Duration(1+rng.IntN(4)) * time.Millisecond
			rev.Jitter = fwd.Jitter
			return fwd, rev
		}},
	}
	for i := range ims {
		im := ims[i]
		ims[i].Build = func(rng *sim.Rand) (simnet.PathSpec, simnet.PathSpec) {
			return im.buildInto(new(pathStore), rng)
		}
	}
	return ims
}

// impairments caches the registry: the Build closures are stateless (all
// randomness comes from the stream passed in), so one copy serves every
// worker.
var impairments = Impairments()

// ImpairmentNames returns the registry names in registry order.
func ImpairmentNames() []string {
	var names []string
	for _, im := range impairments {
		names = append(names, im.Name)
	}
	return names
}

func impairmentByName(name string) (Impairment, error) {
	for _, im := range impairments {
		if im.Name == name {
			return im, nil
		}
	}
	return Impairment{}, fmt.Errorf("campaign: unknown impairment %q", name)
}

// EnumSpec describes a cross-product enumeration of targets.
type EnumSpec struct {
	// Profiles are host profile names (default: all of Profiles()).
	Profiles []string
	// Impairments are impairment names (default: all of ImpairmentNames()).
	Impairments []string
	// Tests are technique names (default: all of Tests).
	Tests []string
	// Seeds is how many seed replicas per combination (default 1).
	Seeds int
	// BaseSeed offsets the derived per-target seeds, so two campaigns
	// over the same cross product can draw disjoint scenarios.
	BaseSeed uint64
	// Topologies are topology names from TopologyNames(), with "" meaning
	// the point-to-point path (default: [""], i.e. no topology dimension).
	Topologies []string
	// Scenarios are fault-schedule names from ScenarioNames(), with ""
	// meaning the static scenario (default: [""], no scenario dimension).
	Scenarios []string
}

// Enumerate expands the cross product profiles × impairments × tests ×
// seeds into a deterministic, stably ordered target list. Unknown profile
// or impairment names are rejected up front so a campaign cannot fail
// thousands of targets in.
func Enumerate(spec EnumSpec) ([]Target, error) {
	if len(spec.Profiles) == 0 {
		spec.Profiles = Profiles()
	}
	if len(spec.Impairments) == 0 {
		spec.Impairments = ImpairmentNames()
	}
	if len(spec.Tests) == 0 {
		spec.Tests = append([]string(nil), Tests...)
	}
	if spec.Seeds <= 0 {
		spec.Seeds = 1
	}
	if len(spec.Topologies) == 0 {
		spec.Topologies = []string{""}
	}
	if len(spec.Scenarios) == 0 {
		spec.Scenarios = []string{""}
	}
	for _, p := range spec.Profiles {
		if _, err := resolveProfile(p); err != nil {
			return nil, err
		}
	}
	for _, im := range spec.Impairments {
		if _, err := impairmentByName(im); err != nil {
			return nil, err
		}
	}
	for _, te := range spec.Tests {
		if !validTest(te) {
			return nil, fmt.Errorf("campaign: unknown test %q", te)
		}
	}
	for _, topo := range spec.Topologies {
		if _, err := topologyByName(topo); err != nil {
			return nil, err
		}
	}
	for _, scn := range spec.Scenarios {
		if _, err := scenarioByName(scn); err != nil {
			return nil, err
		}
	}
	targets := make([]Target, 0, len(spec.Scenarios)*len(spec.Topologies)*
		len(spec.Profiles)*len(spec.Impairments)*len(spec.Tests)*spec.Seeds)
	// The seed ignores the test, so each replica's is derived once per
	// profile×impairment×topology×scenario and shared by the tests.
	seeds := make([]uint64, spec.Seeds)
	h := fnv.New64a()
	var key, name []byte
	for _, scn := range spec.Scenarios {
		for _, topo := range spec.Topologies {
			for _, p := range spec.Profiles {
				for _, im := range spec.Impairments {
					for s := range seeds {
						key = appendSeedKey(key[:0], spec.BaseSeed, p, im, topo, scn, s)
						h.Reset()
						h.Write(key)
						seeds[s] = h.Sum64()
					}
					for _, te := range spec.Tests {
						for _, seed := range seeds {
							t := Target{
								Index:      len(targets),
								Profile:    p,
								Impairment: im,
								Test:       te,
								Seed:       seed,
								Topology:   topo,
								Scenario:   scn,
							}
							name = t.appendName(name[:0])
							t.Name = string(name)
							targets = append(targets, t)
						}
					}
				}
			}
		}
	}
	return targets, nil
}

// appendSeedKey appends the string a target's seed is the FNV-1a hash of.
// It mixes the base seed with the profile, impairment and replica — but
// deliberately not the test, so the four techniques at one
// profile×impairment×replica probe the identical path instance and their
// results stay pairable for agreement analysis. Mixing the profile in
// keeps different hosts from drawing identical paths, so a campaign's
// pooled statistics reflect as many independent path instances as it has
// profile×impairment×replica combinations. The topology and scenario are
// mixed in the same way, so targets on different graphs or under
// different fault schedules draw different path instances. The string is
// frozen, and each optional segment is written only when present:
// "base|profile|impairment|[topology|[#scenario|]]replica", the topology
// segment written (possibly empty) whenever a scenario follows it. A
// target without either hashes the exact pre-dimension string, so every
// historical target list re-derives byte-identically.
func appendSeedKey(dst []byte, base uint64, profile, impairment, topology, scenario string, replica int) []byte {
	dst = strconv.AppendUint(dst, base, 10)
	dst = append(append(append(append(append(dst, '|'), profile...), '|'), impairment...), '|')
	if scenario != "" {
		dst = append(append(append(append(dst, topology...), "|#"...), scenario...), '|')
	} else if topology != "" {
		dst = append(append(dst, topology...), '|')
	}
	return strconv.AppendInt(dst, int64(replica), 10)
}

func validTest(name string) bool {
	switch name {
	case "single", "dual", "syn", "transfer":
		return true
	}
	return false
}

// LoadTargets parses a targets file: one target per line as
// "profile impairment test seed" with optional fifth "topology" and sixth
// "scenario" fields ("-" holds an empty topology's place when only a
// scenario is wanted), blank lines and #-comments ignored. Indices and
// names are assigned in file order.
func LoadTargets(r io.Reader) ([]Target, error) {
	var targets []Target
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 4 || len(fields) > 6 {
			return nil, fmt.Errorf("campaign: targets line %d: want \"profile impairment test seed [topology [scenario]]\", got %q", line, text)
		}
		if _, err := resolveProfile(fields[0]); err != nil {
			return nil, fmt.Errorf("campaign: targets line %d: %w", line, err)
		}
		if _, err := impairmentByName(fields[1]); err != nil {
			return nil, fmt.Errorf("campaign: targets line %d: %w", line, err)
		}
		if !validTest(fields[2]) {
			return nil, fmt.Errorf("campaign: targets line %d: unknown test %q", line, fields[2])
		}
		seed, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: targets line %d: bad seed: %w", line, err)
		}
		topo := ""
		if len(fields) >= 5 && fields[4] != "-" {
			topo = fields[4]
			if _, err := topologyByName(topo); err != nil {
				return nil, fmt.Errorf("campaign: targets line %d: %w", line, err)
			}
		}
		scn := ""
		if len(fields) == 6 && fields[5] != "-" {
			scn = fields[5]
			if _, err := scenarioByName(scn); err != nil {
				return nil, fmt.Errorf("campaign: targets line %d: %w", line, err)
			}
		}
		t := Target{
			Index: len(targets), Profile: fields[0], Impairment: fields[1],
			Test: fields[2], Seed: seed, Topology: topo, Scenario: scn,
		}
		t.Name = t.defaultName()
		targets = append(targets, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return targets, nil
}
