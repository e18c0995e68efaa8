package ipid

import "reorder/internal/packet"

// Observation is one IPID observed by the prober, tagged with which of the
// two validation connections elicited it and its position in elicitation
// order. During prevalidation the prober elicits replies strictly one at a
// time, so elicitation order equals the order the remote host sent them —
// unless the two connections terminate on different hosts (load balancer) or
// the IPID policy is not a shared counter.
type Observation struct {
	Conn int    // 0 or 1: which validation connection
	ID   uint16 // observed IPID
}

// Report summarizes the monotonicity analysis of a prevalidation run,
// following §III-C of the paper: the IPID differences between adjacent
// packets across connections must be positive and must be dominated by the
// differences within a connection (each within-connection step spans two
// elicited packets, so it must be at least as large as the cross-connection
// steps it contains).
type Report struct {
	Samples        int     // observations analyzed
	CrossPairs     int     // adjacent pairs on different connections
	CrossMonotonic int     // of those, IPID strictly increasing
	WithinPairs    int     // adjacent same-connection observations compared
	WithinDominant int     // within-connection deltas >= enclosed cross deltas
	MaxStep        int     // largest positive step seen (wrap-adjusted)
	Constant       bool    // every observed IPID identical (e.g. Linux 2.4 zero)
	Score          float64 // fraction of checks passed, in [0,1]
}

// Usable reports whether the host passed prevalidation and the dual
// connection test may trust its IPIDs. The threshold admits occasional
// reordering-induced inversions during validation itself (validation runs
// over the same network the measurement will) while rejecting random,
// constant, and split-counter behaviour, whose scores collapse toward 0.5
// or 0.
func (r *Report) Usable() bool {
	return !r.Constant && r.Samples >= 4 && r.Score >= 0.9
}

// The reasons prevalidation rules a host out of the dual connection test.
const (
	ReasonZero         = "zero-ipid"     // every observed IPID identical
	ReasonNonMonotonic = "non-monotonic" // any other failure
)

// Exclusion returns why the host failed prevalidation: "" when it is
// Usable, otherwise ReasonZero or ReasonNonMonotonic.
func (r *Report) Exclusion() string {
	switch {
	case r.Usable():
		return ""
	case r.Constant:
		return ReasonZero
	}
	return ReasonNonMonotonic
}

// Validate analyzes an elicited IPID sequence. The observations must be in
// elicitation order. It implements the paper's check: adjacent cross-
// connection differences must be small positive steps, and within-connection
// differences must dominate (a connection's counter advances by everything
// the host sent in between, so it can never advance by less than a cross
// step inside it).
func Validate(obs []Observation) *Report { return ValidateInto(new(Report), obs) }

// ValidateInto is Validate into caller-owned storage: r is overwritten
// completely and returned, valid until its next ValidateInto.
func ValidateInto(r *Report, obs []Observation) *Report {
	*r = Report{Samples: len(obs)}
	if len(obs) < 2 {
		return r
	}
	r.Constant = true
	for _, o := range obs[1:] {
		if o.ID != obs[0].ID {
			r.Constant = false
			break
		}
	}

	checks, passed := 0, 0
	// Cross-connection adjacency: elicited back to back, so the later
	// observation must carry a strictly larger IPID, and the step should be
	// small (the host sent only our replies in between on an idle path).
	const maxPlausibleStep = 1024
	for i := 1; i < len(obs); i++ {
		a, b := obs[i-1], obs[i]
		d := int(packet.IPIDDiff(b.ID, a.ID))
		if d > r.MaxStep {
			r.MaxStep = d
		}
		if a.Conn == b.Conn {
			continue
		}
		r.CrossPairs++
		checks++
		if d > 0 && d <= maxPlausibleStep {
			r.CrossMonotonic++
			passed++
		}
	}
	// Within-connection domination: for consecutive observations on the same
	// connection, the IPID delta must be at least the sum of the positive
	// cross steps strictly inside that span — a shared counter cannot move
	// less than the packets it stamped.
	last := map[int]int{} // conn -> index of previous observation on it
	for i, o := range obs {
		if j, ok := last[o.Conn]; ok {
			within := int(packet.IPIDDiff(o.ID, obs[j].ID))
			r.WithinPairs++
			checks++
			// A shared counter stamped every packet the host sent in the
			// span, one per elicitation, so it must have advanced by at
			// least the span length.
			if within >= i-j {
				r.WithinDominant++
				passed++
			}
		}
		last[o.Conn] = i
	}
	if checks > 0 {
		r.Score = float64(passed) / float64(checks)
	}
	return r
}
