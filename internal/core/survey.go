package core

import (
	"errors"
	"time"
)

// Tests are the four techniques by name, in the §IV-B survey's round-robin
// order.
var Tests = []string{"single", "dual", "syn", "transfer"}

// SurveyTestInto runs the named technique, one of Tests, into res with the
// options the §IV-B survey ran it with: samples measurements, the reversed
// single connection test that resists delayed acknowledgments (§III-B), and
// a transfer that ends after 500 ms of silence (its sample count is the
// served object's size, TransferObjectSize(samples) on a survey target).
// A technique validates the connections it measures: the dual test checks
// the IPID stream of its own pair (ErrIPIDUnusable, reason in
// IPIDExclusion). A caller screens up front only where it reports the screen.
func (p *Prober) SurveyTestInto(res *Result, test string, samples int) error {
	switch test {
	case "single":
		return p.SingleConnectionTestInto(res, SCTOptions{Samples: samples, Reversed: true})
	case "dual":
		return p.DualConnectionTestInto(res, DCTOptions{Samples: samples})
	case "syn":
		return p.SYNTestInto(res, SYNOptions{Samples: samples})
	case "transfer":
		return p.DataTransferTestInto(res, TransferOptions{IdleTimeout: 500 * time.Millisecond})
	}
	return errors.New("core: unknown test " + test)
}

// TransferObjectSize is the size of the object a target serves so that one
// data transfer test, at its default MSS of 256 bytes, yields about samples
// adjacent pairs, like the root web objects the survey fetched.
func TransferObjectSize(samples int) int { return (samples + 1) * 256 }
