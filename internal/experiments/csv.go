package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV emitters for every report, so the paper's figures can be regenerated
// with any plotting tool. Columns are documented per writer; all numbers
// use Go's shortest-roundtrip float formatting.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV emits gap_us,rate,samples — the Fig 7 series.
func (rep *GapSweepReport) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(rep.Points))
	for _, p := range rep.Points {
		rows = append(rows, []string{
			f64(float64(p.Gap.Nanoseconds()) / 1e3), f64(p.Forward), strconv.Itoa(p.Valid),
		})
	}
	return writeCSV(w, []string{"gap_us", "rate", "samples"}, rows)
}

// WriteCSV emits mechanism,gap_us,rate — the E8 curves in long form.
func (rep *MechanismsReport) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range rep.Curves {
		for _, p := range c.Points {
			rows = append(rows, []string{
				c.Name, f64(float64(p.Gap.Nanoseconds()) / 1e3), f64(p.Forward),
			})
		}
	}
	return writeCSV(w, []string{"mechanism", "gap_us", "rate"}, rows)
}

// WriteCSV emits t_s,true_rate,sct_rate,syn_rate — the Fig 6 series.
func (rep *TimeSeriesReport) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(rep.Points))
	for _, p := range rep.Points {
		rows = append(rows, []string{
			f64(p.At.Seconds()), f64(p.TrueRate), f64(p.SCT), f64(p.SYN),
		})
	}
	return writeCSV(w, []string{"t_s", "true_rate", "sct_rate", "syn_rate"}, rows)
}

// WriteCSV emits rate,cdf — the Fig 5 step function.
func (rep *SurveyReport) WriteCSV(w io.Writer) error {
	pts := rep.CDF().Points()
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{f64(p.X), f64(p.Y)})
	}
	return writeCSV(w, []string{"rate", "cdf"}, rows)
}

// WriteCSV emits one row per impact-sweep intensity.
func (rep *ImpactReport) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(rep.Rows))
	for _, r := range rep.Rows {
		rows = append(rows, []string{
			f64(float64(r.Jitter.Nanoseconds()) / 1e3),
			f64(r.MeasuredRate), f64(r.PredictedDeepFrac),
			f64(r.Reno.Throughput()), strconv.Itoa(r.Reno.CwndHalvings),
			f64(r.Adaptive.Throughput()), strconv.Itoa(r.Adaptive.CwndHalvings),
			strconv.Itoa(r.Adaptive.FinalDupThresh),
		})
	}
	return writeCSV(w, []string{
		"jitter_us", "pair_rate", "deep_frac",
		"reno_bps", "reno_halvings", "adaptive_bps", "adaptive_halvings", "final_dupthresh",
	}, rows)
}

// WriteCSV emits one row per validation run with tool and truth counts.
func (rep *ValidationReport) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(rep.Runs))
	for _, r := range rep.Runs {
		rows = append(rows, []string{
			r.Test, f64(r.FwdRate), f64(r.RevRate), strconv.Itoa(r.Samples),
			strconv.Itoa(r.ToolFwd), strconv.Itoa(r.TruthFwd),
			strconv.Itoa(r.ToolRev), strconv.Itoa(r.TruthRev),
		})
	}
	return writeCSV(w, []string{
		"test", "fwd_rate", "rev_rate", "samples",
		"tool_fwd", "truth_fwd", "tool_rev", "truth_rev",
	}, rows)
}
