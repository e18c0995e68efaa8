// Command reorder measures reordering on a simulated path and regenerates
// the paper's evaluation, one command per measurement or experiment:
//
//	reorder probe -test single|dual|syn|transfer|ipid   one measurement (the paper's sting extension against one host)
//	reorder analyze -in a.pcap,b.pcap                   offline, tcptrace-style analysis of raw-IP captures
//	reorder survey                                      §IV-B survey: Fig 5 CDF and IPID exclusions (E2/E6)
//	reorder agreement                                   §IV-B pairwise technique agreement (E4)
//	reorder timeseries                                  Fig 6 time series on a load-balanced path (E3)
//	reorder baselines                                   prior-art baselines (E7)
//	reorder cooperative                                 against a cooperative IPPM session (E10)
//	reorder validate                                    §IV-A controlled validation against ground truth (E1)
//	reorder timedist                                    Fig 7 rate vs packet spacing (E5)
//	reorder mechanisms                                  gap signatures of striping, multi-path and L2 ARQ (E8)
//	reorder impact                                      reordering's cost to TCP (E9)
//
// Each command's flag set is composed from the groups below and holds only
// the flags that command reads, so a flag it would ignore is "flag provided
// but not defined". Each experiment runs the paper's configuration, and every
// report is identical at any -workers count. For target populations beyond
// the survey's shape, see cmd/campaign.
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/cli"
	"reorder/internal/experiments"
)

var commands = []cli.Command{
	{Name: "probe", Summary: "one measurement against a simulated path; -pcap writes its ground-truth captures", Setup: setupProbe},
	{Name: "analyze", Summary: "per-flow reordering statistics of raw-IP pcap captures (-in)", Setup: setupAnalyze},
	{Name: "survey", Summary: "§IV-B host survey: Fig 5 CDF of per-path rates, IPID exclusions (E2/E6)", Setup: setupSurvey},
	{Name: "agreement", Summary: "§IV-B pairwise technique agreement over the survey (E4)", Setup: setupAgreement},
	{Name: "timeseries", Summary: "Fig 6 time series on a load-balanced path (E3)",
		Setup: fixed(experiments.DefaultTimeSeries, experiments.RunTimeSeries)},
	{Name: "baselines", Summary: "prior-art baselines: Bennett ICMP bursts, Paxson passive analysis (E7)",
		Setup: fixed(experiments.DefaultBaselines, experiments.RunBaselines)},
	{Name: "cooperative", Summary: "the techniques against a cooperative IPPM session (E10)",
		Setup: fixed(experiments.DefaultCooperative, experiments.RunCooperative)},
	{Name: "validate", Summary: "§IV-A controlled validation of every technique against trace ground truth (E1)", Setup: setupValidate},
	{Name: "timedist", Summary: "Fig 7 reordering rate vs packet spacing over a striped trunk (E5)", Setup: setupTimedist},
	{Name: "mechanisms", Summary: "gap signatures of trunk striping, multi-path routing and L2 ARQ (E8)", Setup: setupMechanisms},
	{Name: "impact", Summary: "Reno vs adaptive dup-ACK transfers at each reordering intensity (E9)", Setup: setupImpact},
}

var run = cli.Dispatch("reorder", commands)

func main() { cli.Main(run) }

// workersVar defines -workers. Every experiment runs on the campaign
// scheduler's pool, so its default is the scheduler's.
func workersVar(fs *flag.FlagSet) *int {
	return fs.Int("workers", campaign.DefaultWorkers, "concurrent runs; the report is identical at any worker count")
}

// csvVar defines -csv; what names the table the file receives.
func csvVar(fs *flag.FlagSet, what string) *string {
	return fs.String("csv", "", "also write "+what+" as CSV to this path")
}

// writeCSV writes a report's CSV to path, if one was given.
func writeCSV(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	return cli.WriteCSVFile(path, write)
}

// fixed is the setup of an experiment that takes no flags: it runs the
// paper's configuration.
func fixed[C any, R interface{ WriteText(io.Writer) }](paper func() C, experiment func(C) (R, error)) func(*flag.FlagSet) func(io.Writer) error {
	return func(*flag.FlagSet) func(io.Writer) error {
		return func(stdout io.Writer) error {
			rep, err := experiment(paper())
			if err != nil {
				return err
			}
			rep.WriteText(stdout)
			return nil
		}
	}
}

func surveyConfig(workers int) experiments.SurveyConfig {
	cfg := experiments.DefaultSurvey()
	cfg.Workers = workers
	return cfg
}

func setupSurvey(fs *flag.FlagSet) func(io.Writer) error {
	workers, csvPath := workersVar(fs), csvVar(fs, "the Fig 5 CDF")
	return func(stdout io.Writer) error {
		rep := experiments.RunSurvey(surveyConfig(*workers))
		rep.WriteText(stdout)
		return writeCSV(*csvPath, rep.WriteCSV)
	}
}

func setupAgreement(fs *flag.FlagSet) func(io.Writer) error {
	workers := workersVar(fs)
	return func(stdout io.Writer) error {
		experiments.RunAgreement(experiments.RunSurvey(surveyConfig(*workers))).WriteText(stdout)
		return nil
	}
}

func setupValidate(fs *flag.FlagSet) func(io.Writer) error {
	workers, csvPath := workersVar(fs), csvVar(fs, "the per-run table")
	samples := fs.Int("samples", 0, "override samples per run")
	return func(stdout io.Writer) error {
		cfg := experiments.DefaultValidation()
		if *samples > 0 {
			cfg.Samples = *samples
		}
		cfg.Workers = *workers
		rep := experiments.RunValidation(cfg)
		rep.WriteText(stdout)
		return writeCSV(*csvPath, rep.WriteCSV)
	}
}

func setupTimedist(fs *flag.FlagSet) func(io.Writer) error {
	workers, csvPath := workersVar(fs), csvVar(fs, "the curve")
	samples := fs.Int("samples", 0, "override samples per point (paper: 1000)")
	plot := fs.Bool("plot", true, "render an ASCII plot of the curve")
	return func(stdout io.Writer) error {
		cfg := experiments.DefaultGapSweep()
		if *samples > 0 {
			cfg.SamplesPerPoint = *samples
		}
		cfg.Workers = *workers
		rep, err := experiments.RunGapSweep(cfg)
		if err != nil {
			return err
		}
		rep.WriteText(stdout)
		if err := writeCSV(*csvPath, rep.WriteCSV); err != nil {
			return err
		}
		if *plot {
			fmt.Fprintln(stdout)
			asciiPlot(stdout, rep)
		}
		return nil
	}
}

func setupMechanisms(fs *flag.FlagSet) func(io.Writer) error {
	workers, csvPath := workersVar(fs), csvVar(fs, "the curves")
	return func(stdout io.Writer) error {
		cfg := experiments.DefaultMechanisms()
		cfg.Workers = *workers
		rep, err := experiments.RunMechanisms(cfg)
		if err != nil {
			return err
		}
		rep.WriteText(stdout)
		return writeCSV(*csvPath, rep.WriteCSV)
	}
}

func setupImpact(fs *flag.FlagSet) func(io.Writer) error {
	csvPath := csvVar(fs, "the sweep")
	return func(stdout io.Writer) error {
		rep, err := experiments.RunImpact(experiments.DefaultImpact())
		if err != nil {
			return err
		}
		rep.WriteText(stdout)
		return writeCSV(*csvPath, rep.WriteCSV)
	}
}

// asciiPlot renders rate-vs-gap as rows of bars, downsampling to at most
// 40 rows.
func asciiPlot(w io.Writer, rep *experiments.GapSweepReport) {
	pts := rep.Points
	if len(pts) == 0 {
		return
	}
	step := (len(pts) + 39) / 40
	maxRate := 0.0
	for _, p := range pts {
		if p.Forward > maxRate {
			maxRate = p.Forward
		}
	}
	if maxRate == 0 {
		maxRate = 1
	}
	fmt.Fprintln(w, "gap        rate")
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		width := int(p.Forward / maxRate * 50)
		fmt.Fprintf(w, "%-9s %7.4f |%s\n", p.Gap.Round(time.Microsecond), p.Forward, strings.Repeat("#", width))
	}
}
