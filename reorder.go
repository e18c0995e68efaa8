// Package reorder runs the four one-way reordering measurements of
// Bellardo & Savage, "Measuring Packet Reordering" (IMC 2002) — the single
// connection, dual connection, SYN and data transfer tests — against a
// simulated path to a simulated TCP server.
//
// NewSimNet builds the path and the server; NewProber runs the tests over
// it. A typical session:
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
// The package exports only what its examples and tests run. Campaigns over
// thousands of targets, the paper's experiments and the distributed plane
// are the commands under cmd/.
package reorder

import (
	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/simnet"
)

// Measurement engine (§III of the paper).
type (
	// Result is one measurement's outcome.
	Result = core.Result

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
	// GapSweepOptions configures Prober.GapSweep, the §IV-C time-domain
	// distribution measurement.
	GapSweepOptions = core.GapSweepOptions
)

// ErrIPIDUnusable is returned by the dual connection and burst tests when
// IPID prevalidation rules the target out (§III-C).
var ErrIPIDUnusable = core.ErrIPIDUnusable

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
	// ARQConfig describes a lossy layer-2 link with retransmission.
	ARQConfig = netem.ARQConfig
	// HostProfile describes a remote stack's implementation behaviour.
	HostProfile = host.Profile
)

// NewSimNet builds a simulated scenario.
func NewSimNet(cfg SimConfig) *SimNet { return simnet.New(cfg) }

// Host profiles (the §IV-B population).
var (
	FreeBSD4    = host.FreeBSD4
	Linux22     = host.Linux22
	Linux24     = host.Linux24
	OpenBSD3    = host.OpenBSD3
	Windows2000 = host.Windows2000
	HostCatalog = host.Catalog
)
