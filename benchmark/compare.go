package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"reorder/internal/cli"
)

// benchSpec is the part of BENCHMARK.json -compare needs: the end-to-end
// metrics with their direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareResults prints, per workload and end-to-end metric, both values,
// how much worse b is than a, and the bound. A difference beyond the bound
// is a regression (non-zero exit); one inside it counts as unchanged only
// when both files' own run-to-run spread is inside the bound too, and is
// reported unresolved otherwise.
func compareResults(stdout io.Writer, specPath, aPath, bPath string) error {
	var spec benchSpec
	var a, b result
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintf(stdout, "note: inputs differ (seed %d scale %g vs seed %d scale %g): hashes and counts are not comparable\n",
			a.Seed, a.Scale, b.Seed, b.Scale)
	}
	fmt.Fprintf(stdout, "%-22s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	regressions := 0
	for _, name := range a.Order {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(stdout, "%-22s only in %s\n", name, aPath)
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			worse := safeDiv(mb.Value-ma.Value, ma.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case max(ma.Spread, mb.Spread) > m.Bound:
				verdict = fmt.Sprintf("unresolved (own spread %.1f%% / %.1f%%)", ma.Spread*100, mb.Spread*100)
			}
			fmt.Fprintf(stdout, "%-22s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				name, m.Name, ma.Value, mb.Value, worse*100, m.Bound*100, verdict)
		}
		same := func(eq bool) string {
			if eq {
				return "identical"
			}
			return "DIFFER"
		}
		fmt.Fprintf(stdout, "%-22s output hashes %s, simulated counts %s, failed %d/%d vs %d/%d\n", name,
			same(wa.Output == wb.Output), same(reflect.DeepEqual(wa.Counts, wb.Counts)),
			wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if wb.Failed > wa.Failed {
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d beyond bound\n", regressions)
		return cli.ErrReported
	}
	return nil
}
