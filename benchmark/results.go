package main

import "fmt"

// metric is one named measurement. N is the number of samples behind it and
// Spread their interquartile range as a share of the median (0 when the
// value is a single count), which -compare uses to tell a resolved
// difference from noise.
type metric struct {
	Name   string  `json:"-"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"spread,omitempty"`
	Note   string  `json:"note,omitempty"`
}

// workloadResult is everything recorded for one workload in one run.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Targets   int               `json:"targets"`
	Passes    int               `json:"passes"`
	Output    outputDigest      `json:"output"`
	Metrics   map[string]metric `json:"metrics"`
	// Counts are the exact simulated totals of the traced passes (events,
	// frames, virtual nanoseconds): two commits with equal counts and equal
	// hashes simulated the same thing.
	Counts map[string]uint64 `json:"counts,omitempty"`
	// Samples are the raw per-pass and per-sweep readings the metrics were
	// reduced from, in run order.
	Samples map[string][]float64 `json:"samples,omitempty"`

	metricList []metric
}

func (wr *workloadResult) add(name string, value float64, unit string, n int) *metric {
	wr.metricList = append(wr.metricList, metric{Name: name, Value: value, Unit: unit, N: n})
	return &wr.metricList[len(wr.metricList)-1]
}

// result is the -json file: one run of one or more workloads.
type result struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Scale     float64                    `json:"scale"`
	Trace     int                        `json:"trace"`
	Order     []string                   `json:"order,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads,omitempty"`
	// RefNs are the host-speed reference's samples, ns per load, in run order.
	RefNs []float64 `json:"ref_ns_per_load,omitempty"`
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]contractMetric  `json:"metrics,omitempty"`
	Workloads map[string]*contractResult `json:"workloads,omitempty"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (wr *workloadResult) contract() *contractResult {
	c := &contractResult{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]contractMetric{}}
	for _, m := range wr.metricList {
		c.Metrics[m.Name] = contractMetric{m.Value, m.Unit}
	}
	return c
}

func (r *result) contract() *contractResult {
	c := &contractResult{Correct: true, Workloads: map[string]*contractResult{}}
	for name, wr := range r.Workloads {
		wc := wr.contract()
		c.Workloads[name] = wc
		c.Correct = c.Correct && wc.Correct
		c.Attempted += wc.Attempted
		c.Failed += wc.Failed
	}
	return c
}

// report turns what was measured on w into its named metrics: the
// end-to-end set from an untraced run, the per-layer set from a traced one.
func (b *bench) report(w *workload) *workloadResult {
	wr := &workloadResult{
		Correct: w.failed == 0 && w.attempted > 0, Attempted: w.attempted, Failed: w.failed,
		Targets: len(w.targets), Passes: len(w.wall) + len(w.tracedWall), Output: w.ref,
		Metrics: map[string]metric{},
		Samples: map[string][]float64{
			"setup_s": w.setupS, "pass_wall_s": w.wall, "pass_cpu_s": w.cpu, "pass_mallocs": w.mallocs,
			"sweep_p50_us": w.sweepP50,
		},
	}
	if b.opt.trace == 1 {
		b.reportLayers(w, wr)
	} else {
		b.reportEndToEnd(w, wr)
	}
	return wr
}

// reportEndToEnd derives the end-to-end metrics. Work is deterministic and
// CPU-bound, so interference from a shared host only ever slows a pass: the
// rate is computed from the lower-quartile pass time, with median, minimum
// and interquartile range beside it. Both times are then put at the host
// reference's nominal speed (hostref.go); the note carries the figure as
// clocked.
func (b *bench) reportEndToEnd(w *workload, wr *workloadResult) {
	n := float64(len(w.targets))
	factor := b.hostFactor()
	wall := summarize(w.wall)
	m := wr.add("targets_per_s", safeDiv(n, wall.Q1)*factor, "targets/s", wall.N)
	m.Spread = wall.spread()
	m.Note = fmt.Sprintf("%.0f as clocked x host factor %.3f; lower-quartile pass %.4fs, median %.4fs min %.4fs iqr %.4fs",
		safeDiv(n, wall.Q1), factor, wall.Q1, wall.Median, wall.Min, wall.Q3-wall.Q1)

	m = wr.add("allocs_per_target", safeDiv(sum(w.mallocs), n*float64(wall.N)), "allocs", wall.N)
	m.Spread = summarize(w.mallocs).spread()

	setup := summarize(w.setupS)
	m = wr.add("setup_s", safeDiv(setup.Median, factor), "s", setup.N)
	m.Spread = setup.spread()
	m.Note = fmt.Sprintf("%.4fs as clocked / host factor %.3f", setup.Median, factor)
}
