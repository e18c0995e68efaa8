// Package metrics implements sequence-based reordering metrics for
// arbitrary packet arrival sequences: the paper's primitive exchange
// metric generalized to trains, plus the IPPM metrics of the
// Morton/Ciavattone/Ramachandran draft the paper cites ([8],
// draft-morton-ippm-nonrev-reordering, which later became RFC 4737) —
// reordered-packet ratio by the non-reversing-order definition, per-packet
// reordering extent, and n-reordering.
//
// All metrics consume an arrival sequence of source sequence numbers
// (0-based send positions). Receivers with gaps simply omit the lost
// positions; duplicates should be filtered by the caller (the probers
// already do).
package metrics

import "fmt"

// Report holds every metric for one arrival sequence.
type Report struct {
	// Sent is the highest send position observed plus one (packets the
	// sequence proves were sent). Received is the arrival count.
	Sent, Received int

	// Exchanges is the paper's primitive: the number of adjacent arrival
	// pairs whose send order is inverted.
	Exchanges int

	// Reordered is the number of packets reordered under the IPPM
	// non-reversing-order definition: a packet is reordered when its send
	// position is smaller than that of some earlier-arriving packet
	// (equivalently, it arrives with position < the running maximum).
	Reordered int

	// Extents[i] is the reordering extent of the i-th arrival: for a
	// reordered packet, the distance in arrival positions back to the
	// earliest earlier-arrival with a larger send position; 0 for
	// in-order packets.
	Extents []int

	// NReordering[n-1] is the count of n-reordered packets for n = 1..
	// len(NReordering): packets reordered with extent >= n. A packet that
	// is n-reordered for n >= dupthresh would trigger a spurious TCP fast
	// retransmit at that dupthresh — the protocol-impact interpretation
	// the paper argues distribution metrics enable.
	NReordering []int
}

// Ratio returns the reordered-packet ratio: Reordered / Received.
func (r *Report) Ratio() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.Reordered) / float64(r.Received)
}

// ExchangeRatio returns Exchanges per adjacent arrival pair.
func (r *Report) ExchangeRatio() float64 {
	if r.Received < 2 {
		return 0
	}
	return float64(r.Exchanges) / float64(r.Received-1)
}

// MaxExtent returns the largest reordering extent observed.
func (r *Report) MaxExtent() int {
	max := 0
	for _, e := range r.Extents {
		if e > max {
			max = e
		}
	}
	return max
}

// NReordered returns the number of packets n-reordered at the given n
// (0 for n below 1 or beyond the observed maximum).
func (r *Report) NReordered(n int) int {
	if n < 1 || n > len(r.NReordering) {
		return 0
	}
	return r.NReordering[n-1]
}

// SpuriousFastRetransmits returns how many reordering events would have
// been misread as losses by a TCP sender using the given duplicate-ACK
// threshold (3 in classic Reno): packets n-reordered at n >= dupthresh.
func (r *Report) SpuriousFastRetransmits(dupthresh int) int {
	return r.NReordered(dupthresh)
}

// String summarizes the report on one line.
func (r *Report) String() string {
	return fmt.Sprintf("received=%d reordered=%d (ratio %.4f) exchanges=%d max-extent=%d",
		r.Received, r.Reordered, r.Ratio(), r.Exchanges, r.MaxExtent())
}

// Analyze computes all metrics over an arrival sequence of send positions.
func Analyze(arrivals []int) *Report { return AnalyzeInto(new(Report), arrivals) }

// AnalyzeInto is Analyze into caller-owned storage: rep is overwritten
// completely, its Extents and NReordering slices reused, and returned. The
// report is valid until rep's next AnalyzeInto.
func AnalyzeInto(rep *Report, arrivals []int) *Report {
	*rep = Report{
		Received:    len(arrivals),
		Extents:     resize(rep.Extents, len(arrivals)),
		NReordering: rep.NReordering,
	}
	maxSeen := -1
	for i, pos := range arrivals {
		if pos+1 > rep.Sent {
			rep.Sent = pos + 1
		}
		if i > 0 && pos < arrivals[i-1] {
			rep.Exchanges++
		}
		if pos < maxSeen {
			rep.Reordered++
			// Extent: distance back to the earliest earlier arrival that
			// has a larger send position (RFC 4737 §4.2.1).
			extent := 0
			for j := i - 1; j >= 0; j-- {
				if arrivals[j] > pos {
					extent = i - j
				}
			}
			rep.Extents[i] = extent
		}
		if pos > maxSeen {
			maxSeen = pos
		}
	}
	// n-reordering histogram from the extents.
	maxExt := rep.MaxExtent()
	rep.NReordering = resize(rep.NReordering, maxExt)
	for _, e := range rep.Extents {
		for n := 1; n <= e; n++ {
			rep.NReordering[n-1]++
		}
	}
	return rep
}

// resize returns s with length n and every element zero, reallocating only
// to grow (and never nil, as the slices Analyze has always returned).
func resize(s []int, n int) []int {
	if s == nil || cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// FromSeqs converts TCP-style byte sequence numbers of equal-sized
// segments into send positions and analyzes them. segSize must be the
// constant segment length; base is the first byte's sequence number.
// Sequence numbers that are not aligned multiples are rejected.
func FromSeqs(base uint32, segSize int, seqs []uint32) (*Report, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("metrics: segment size %d", segSize)
	}
	arrivals := make([]int, len(seqs))
	for i, s := range seqs {
		off := s - base // wraps correctly in uint32 space
		if off%uint32(segSize) != 0 {
			return nil, fmt.Errorf("metrics: seq %d not aligned to %d-byte segments from base %d", s, segSize, base)
		}
		arrivals[i] = int(off / uint32(segSize))
	}
	return Analyze(arrivals), nil
}
