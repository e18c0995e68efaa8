// Package reorder is the public facade of this repository: a library for
// measuring one-way packet reordering to and from arbitrary TCP servers,
// reproducing the techniques of Bellardo & Savage, "Measuring Packet
// Reordering" (IMC 2002).
//
// The measurement engine lives in internal/core and is re-exported here;
// the simulated network substrate (internal/simnet and friends) is
// re-exported so downstream users can build scenarios without reaching
// into internal packages. A typical session:
//
//	net := reorder.NewSimNet(reorder.SimConfig{
//	    Seed:    1,
//	    Server:  reorder.FreeBSD4(),
//	    Forward: reorder.PathSpec{SwapProb: 0.05},
//	})
//	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 2)
//	res, err := p.SingleConnectionTest(reorder.SCTOptions{Samples: 15})
//	...
//	fmt.Printf("forward reordering: %.2f%%\n", res.Forward().Rate()*100)
//
// The Prober drives any core.Transport: that interface is the seam a live
// raw-socket backend plugs into in place of the simulator.
package reorder

import (
	"reorder/internal/campaign"
	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/simnet"
	"reorder/internal/stats"
)

// Measurement engine (§III of the paper).
type (
	// Prober runs the four measurement techniques against one target.
	Prober = core.Prober
	// Transport is the raw-packet interface a Prober drives.
	Transport = core.Transport
	// Result is one measurement's outcome.
	Result = core.Result
	// Sample is one packet-pair classification.
	Sample = core.Sample
	// Verdict classifies one direction of one sample.
	Verdict = core.Verdict
	// DirCount aggregates verdicts for one direction.
	DirCount = core.DirCount

	// SCTOptions configures the single connection test.
	SCTOptions = core.SCTOptions
	// DCTOptions configures the dual connection test.
	DCTOptions = core.DCTOptions
	// SYNOptions configures the SYN test.
	SYNOptions = core.SYNOptions
	// TransferOptions configures the TCP data transfer test.
	TransferOptions = core.TransferOptions
	// IPIDCheckOptions configures standalone IPID prevalidation.
	IPIDCheckOptions = core.IPIDCheckOptions
	// BurstOptions configures the k-packet burst generalization of the
	// dual connection test.
	BurstOptions = core.BurstOptions
	// BurstResult is a burst test's outcome; its aggregates are
	// metrics.Report values with reordering extents and n-reordering.
	BurstResult = core.BurstResult
	// BurstSample is one train's outcome.
	BurstSample = core.BurstSample
	// GapSweepOptions configures Prober.GapSweep, the §IV-C time-domain
	// distribution measurement.
	GapSweepOptions = core.GapSweepOptions
	// GapDistribution is a measured reordering-vs-spacing curve.
	GapDistribution = core.GapDistribution
	// GapRate is one spacing's measurement.
	GapRate = core.GapRate
)

// Verdict values.
const (
	VerdictUnknown   = core.VerdictUnknown
	VerdictInOrder   = core.VerdictInOrder
	VerdictReordered = core.VerdictReordered
	VerdictLost      = core.VerdictLost
	VerdictAmbiguous = core.VerdictAmbiguous
)

// Errors.
var (
	ErrHandshake    = core.ErrHandshake
	ErrIPIDUnusable = core.ErrIPIDUnusable
	ErrNoData       = core.ErrNoData
)

// NewProber returns a prober for target over the given transport.
var NewProber = core.NewProber

// Simulated substrate.
type (
	// SimNet is a wired-up simulated scenario.
	SimNet = simnet.Net
	// SimConfig describes a scenario.
	SimConfig = simnet.Config
	// PathSpec describes one direction's impairments.
	PathSpec = simnet.PathSpec
	// TrunkConfig describes a striped parallel trunk (the paper's §IV-C
	// reordering mechanism).
	TrunkConfig = netem.TrunkConfig
	// MultiPathConfig describes per-packet spraying over unequal paths.
	MultiPathConfig = netem.MultiPathConfig
	// ARQConfig describes a lossy layer-2 link with retransmission.
	ARQConfig = netem.ARQConfig
	// FrameView is the decoded form a zero-copy frame carries through the
	// simulated wire (see PathSpec.Corrupt for what forces wire bytes).
	FrameView = netem.FrameView
	// HostProfile describes a remote stack's implementation behaviour.
	HostProfile = host.Profile
)

// NewSimNet builds a simulated scenario.
func NewSimNet(cfg SimConfig) *SimNet { return simnet.New(cfg) }

// Host profiles (the §IV-B population).
var (
	FreeBSD4     = host.FreeBSD4
	Linux22      = host.Linux22
	Linux24      = host.Linux24
	OpenBSD3     = host.OpenBSD3
	Solaris8     = host.Solaris8
	Windows2000  = host.Windows2000
	SpecStack    = host.SpecStack
	DualRSTStack = host.DualRSTStack
	HostCatalog  = host.Catalog
)

// Campaign orchestration (internal/campaign): concurrent measurement
// campaigns over thousands of targets with streaming sinks and
// checkpoint/resume — the production-scale generalization of the §IV-B
// survey.
type (
	// CampaignConfig parameterizes a campaign run.
	CampaignConfig = campaign.Config
	// CampaignTarget is one unit of campaign work.
	CampaignTarget = campaign.Target
	// CampaignResult is the streamed per-target record.
	CampaignResult = campaign.TargetResult
	// CampaignSummary is the merged outcome of a campaign.
	CampaignSummary = campaign.Summary
	// CampaignEnumSpec describes a cross-product target enumeration.
	CampaignEnumSpec = campaign.EnumSpec
	// CampaignImpairment is a named, seedable path condition.
	CampaignImpairment = campaign.Impairment
	// Scheduler is the bounded worker pool with a retry budget and
	// in-order completion delivery.
	Scheduler = campaign.Scheduler
	// SchedulerConfig tunes the worker pool.
	SchedulerConfig = campaign.SchedulerConfig
	// Aggregator folds per-target results via lock-free per-worker shards
	// of fixed-bin streaming histograms: constant memory in target count.
	Aggregator = campaign.Aggregator
	// CampaignRateSummary is one streamed statistic's reduction: exact
	// N/Min/Max plus histogram-interpolated Mean and P50/P90/P99.
	CampaignRateSummary = campaign.RateSummary
	// Sink is a streaming consumer of per-target campaign results.
	Sink = campaign.Sink
	// JSONLSink streams results as one JSON object per line.
	JSONLSink = campaign.JSONLSink
	// CSVSink streams results as CSV rows.
	CSVSink = campaign.CSVSink
	// CSVRowEncoder renders results to CSV row bytes byte-identically to
	// CSVSink, for batched (one-Write-per-span) emission pipelines.
	CSVRowEncoder = campaign.CSVRowEncoder
	// CampaignCheckpoint records durable campaign progress.
	CampaignCheckpoint = campaign.Checkpoint
)

// Campaign entry points.
var (
	// RunCampaign executes a campaign and returns the merged summary.
	RunCampaign = campaign.Run
	// EnumerateTargets expands a cross product into a target list.
	EnumerateTargets = campaign.Enumerate
	// LoadTargets parses a targets file.
	LoadTargets = campaign.LoadTargets
	// ProbeCampaignTarget runs one target's measurement hermetically.
	ProbeCampaignTarget = campaign.ProbeTarget
	// NewScheduler returns a configured worker pool.
	NewScheduler = campaign.NewScheduler
	// NewCSVRowEncoder returns a worker-side CSV row encoder.
	NewCSVRowEncoder = campaign.NewCSVRowEncoder
	// CampaignProfiles lists the enumerable host profile names.
	CampaignProfiles = campaign.Profiles
	// CampaignImpairments lists the named path impairments.
	CampaignImpairments = campaign.Impairments
)

// Streaming statistics (internal/stats): the constant-memory histogram
// machinery the campaign aggregator shards are built from, exported so
// downstream pipelines can reduce their own JSONL streams the same way.
type (
	// Histogram is a fixed-bin streaming histogram: mergeable shards,
	// bin-interpolated quantiles, CDF points, constant memory.
	Histogram = stats.Histogram
	// CDFPoint is one (x, P(X<=x)) plot coordinate.
	CDFPoint = stats.Point
)

// Histogram constructors.
var (
	// NewHistogram builds a histogram over ascending bin edges.
	NewHistogram = stats.NewHistogram
	// UniformEdges returns equally spaced bin edges over [lo, hi].
	UniformEdges = stats.UniformEdges
	// LogEdges returns geometrically spaced bin edges over [lo, hi].
	LogEdges = stats.LogEdges
)
