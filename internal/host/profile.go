package host

import (
	"time"

	"reorder/internal/ipid"
	"reorder/internal/sim"
	"reorder/internal/tcpstack"
)

// Profile captures the externally observable implementation behaviour of an
// operating system's network stack — the axes along which the paper's
// techniques succeed or fail.
type Profile struct {
	// Name identifies the profile in survey reports (e.g. "freebsd4").
	Name string
	// TCP is the stack configuration.
	TCP tcpstack.Config
	// IPID initializes the IPID policy in the host's generator storage;
	// stochastic policies draw from the provided stream. The generator is
	// the host's until its next reset.
	IPID func(s *ipid.Store, rng *sim.Rand) ipid.Generator
	// ICMP is the echo responder behaviour.
	ICMP ICMPConfig
	// Ports are the listening TCP ports (80 for the web-serving hosts).
	Ports []uint16
}

// The profile catalog models the OS mix of the paper's survey (§IV-B): all
// major server operating systems of the era plus the pathologies that rule
// tests out — Linux 2.4's constant-zero IPID (9 of 50 hosts) and the random
// IPIDs of hardened BSDs.

// FreeBSD4 models a FreeBSD 4.x server: global-counter IPID, 100ms delayed
// ACKs, always-RST second-SYN handling, SACK off (off by default then).
func FreeBSD4() Profile {
	return Profile{
		Name: "freebsd4",
		TCP: tcpstack.Config{
			DelAckThreshold: 2, DelAckTimeout: 100 * time.Millisecond,
			SYNPolicy: tcpstack.SYNPolicyRST,
		},
		IPID:  func(s *ipid.Store, _ *sim.Rand) ipid.Generator { return s.Global.Reset(1) },
		Ports: []uint16{80},
	}
}

// Linux22 models Linux 2.2: global-counter IPID, 200ms delayed ACKs, SACK on.
func Linux22() Profile {
	return Profile{
		Name: "linux22",
		TCP: tcpstack.Config{
			DelAckThreshold: 2, DelAckTimeout: 200 * time.Millisecond,
			SYNPolicy: tcpstack.SYNPolicyRST, SACK: true,
		},
		IPID:  func(s *ipid.Store, _ *sim.Rand) ipid.Generator { return s.Global.Reset(1) },
		Ports: []uint16{80},
	}
}

// Linux24 models Linux 2.4 with path MTU discovery: IPID constantly zero on
// DF packets, which rules out the dual connection test (§IV-B found 9 such
// hosts).
func Linux24() Profile {
	p := Linux22()
	p.Name = "linux24"
	p.IPID = func(*ipid.Store, *sim.Rand) ipid.Generator { return ipid.Zero{} }
	return p
}

// OpenBSD3 models OpenBSD with randomized IPIDs, which also rules out the
// dual connection test.
func OpenBSD3() Profile {
	return Profile{
		Name: "openbsd3",
		TCP: tcpstack.Config{
			DelAckThreshold: 2, DelAckTimeout: 200 * time.Millisecond,
			SYNPolicy: tcpstack.SYNPolicyRST,
		},
		IPID:  func(s *ipid.Store, rng *sim.Rand) ipid.Generator { return s.Random.Reset(rng) },
		Ports: []uint16{80},
	}
}

// Solaris8 models Solaris with per-destination IPID counters — fine for the
// dual connection test per the paper's footnote.
func Solaris8() Profile {
	return Profile{
		Name: "solaris8",
		TCP: tcpstack.Config{
			DelAckThreshold: 2, DelAckTimeout: 50 * time.Millisecond,
			SYNPolicy: tcpstack.SYNPolicySpec,
		},
		IPID:  func(s *ipid.Store, _ *sim.Rand) ipid.Generator { return s.PerDest.Reset(1) },
		Ports: []uint16{80},
	}
}

// Windows2000 models a Windows server: global-counter IPID, 200ms delayed
// ACKs, always-RST, SACK on.
func Windows2000() Profile {
	return Profile{
		Name: "win2000",
		TCP: tcpstack.Config{
			DelAckThreshold: 2, DelAckTimeout: 200 * time.Millisecond,
			SYNPolicy: tcpstack.SYNPolicyRST, SACK: true,
		},
		IPID:  func(s *ipid.Store, _ *sim.Rand) ipid.Generator { return s.Global.Reset(1) },
		Ports: []uint16{80},
	}
}

// SpecStack is a strictly spec-following implementation: per-spec second-SYN
// handling and maximal 500ms delayed ACKs. A small population exists to
// exercise the SYN test's "poorly understood" corner (§III-D).
func SpecStack() Profile {
	return Profile{
		Name: "spec",
		TCP: tcpstack.Config{
			DelAckThreshold: 2, DelAckTimeout: 500 * time.Millisecond,
			SYNPolicy: tcpstack.SYNPolicySpec, SACK: true,
		},
		IPID:  func(s *ipid.Store, _ *sim.Rand) ipid.Generator { return s.Global.Reset(1) },
		Ports: []uint16{80},
	}
}

// DualRSTStack models the small number of implementations that answer a
// second SYN with two RSTs.
func DualRSTStack() Profile {
	p := FreeBSD4()
	p.Name = "dual-rst"
	p.TCP.SYNPolicy = tcpstack.SYNPolicyDualRST
	return p
}

// FilteredICMP wraps a profile with ICMP filtering (security-conscious
// operators; breaks Bennett-style measurement, §II).
func FilteredICMP(p Profile) Profile {
	p.Name += "+icmp-filtered"
	p.ICMP.Filtered = true
	return p
}

// RateLimitedICMP wraps a profile with an ICMP rate limit.
func RateLimitedICMP(p Profile, perSec int) Profile {
	p.Name += "+icmp-ratelimited"
	p.ICMP.RepliesPerSec = perSec
	return p
}

// Catalog returns the full profile list used by the survey experiment.
func Catalog() []Profile {
	return []Profile{
		FreeBSD4(), Linux22(), Linux24(), OpenBSD3(), Solaris8(),
		Windows2000(), SpecStack(), DualRSTStack(),
	}
}
