package campaign

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"reorder/internal/sim"
)

// routedExposureGolden is the sample-exposure table of the routed clean
// list: per topology × technique, the targets measured, their samples, the
// fraction of those samples taken while cross traffic was in flight, and
// the median virtual time of a target's first sample.
const routedExposureGolden = `topology     test    targets samples exposed first_ms
bottleneck   single       72     576   0.738     27.0
bottleneck   dual         48     384   0.987    448.5
bottleneck   syn          72     576   0.583      0.0
parallel-x2  single       72     576   0.616     26.3
parallel-x2  dual         48     384   0.615    489.7
parallel-x2  syn          72     576   0.745      0.0
diamond      single       72     576   0.000     52.9
diamond      dual         48     384   0.000    370.2
diamond      syn          72     576   0.000      0.0
multihop     single       72     576   0.634     32.6
multihop     dual         48     384   0.661    607.2
multihop     syn          72     576   0.679      0.0
`

// TestRoutedSampleExposure pins when each technique samples a routed path
// relative to its cross traffic. A sample is exposed when its first packet
// leaves the probe (the probe-egress capture time of SentIDs[0]) while some
// cross flow has started and not finished. The flows are finite, so a
// technique that waits longer before its first sample measures a quieter
// path: the techniques probe the same scenario, not the same window of it.
func TestRoutedSampleExposure(t *testing.T) {
	defer func(old bool) { debugCaptures = old }(debugCaptures)
	debugCaptures = true
	topos := []string{"bottleneck", "parallel-x2", "diamond", "multihop"}
	tests := []string{"single", "dual", "syn"}
	targets, err := Enumerate(EnumSpec{
		Impairments: []string{"clean"}, Tests: tests, Topologies: topos, Seeds: 8, BaseSeed: 719,
	})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		targets, samples, exposed int
		first                     []time.Duration
	}
	cells := map[string]*cell{}
	arena := NewProbeArena()
	var res TargetResult
	for _, tg := range targets {
		arena.ProbeTargetInto(&res, tg, 8, 0)
		if res.Err != "" || res.DCTExcluded != "" || len(arena.result.Samples) == 0 {
			continue
		}
		key := tg.Topology + "/" + tg.Test
		c := cells[key]
		if c == nil {
			c = &cell{}
			cells[key] = c
		}
		c.targets++
		net, flows := arena.net, arena.topoSpec.Flows
		for i, s := range arena.result.Samples {
			pos, ok := net.ProbeEgress.Position(s.SentIDs[0])
			if !ok {
				t.Fatalf("%s: sample %d's first packet (frame %d) never left the probe", tg.Name, i, s.SentIDs[0])
			}
			at := net.ProbeEgress.Records()[pos].At
			if i == 0 {
				c.first = append(c.first, at.Duration())
			}
			c.samples++
			for f, snd := range net.Senders {
				start := sim.Time(0).Add(flows[f].Start)
				if at >= start && (!snd.Done() || at < start.Add(snd.Stats().Elapsed)) {
					c.exposed++
					break
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-7s %7s %7s %7s %8s\n", "topology", "test", "targets", "samples", "exposed", "first_ms")
	for _, topo := range topos {
		for _, test := range tests {
			c := cells[topo+"/"+test]
			if c == nil {
				t.Fatalf("%s/%s: no target measured", topo, test)
			}
			slices.Sort(c.first)
			median := c.first[(len(c.first)-1)/2]
			fmt.Fprintf(&b, "%-12s %-7s %7d %7d %7.3f %8.1f\n", topo, test, c.targets, c.samples,
				float64(c.exposed)/float64(c.samples), float64(median)/float64(time.Millisecond))
		}
	}
	if got := b.String(); got != routedExposureGolden {
		t.Errorf("routed sample exposure:\n%s\nwant:\n%s", got, routedExposureGolden)
	}
}
