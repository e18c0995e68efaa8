package packet

// TCP sequence-number arithmetic, modulo 2^32. The comparison helpers follow
// the standard convention: a is "less than" b when the signed 32-bit
// difference a-b is negative, which handles wraparound for distances under
// 2^31.

// SeqLT reports a < b in sequence space.
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqGT reports a > b in sequence space.
func SeqGT(a, b uint32) bool { return int32(a-b) > 0 }

// SeqGEQ reports a >= b in sequence space.
func SeqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// SeqMax returns the later of a and b in sequence space.
func SeqMax(a, b uint32) uint32 {
	if SeqGT(a, b) {
		return a
	}
	return b
}

// SeqMin returns the earlier of a and b in sequence space.
func SeqMin(a, b uint32) uint32 {
	if SeqLT(a, b) {
		return a
	}
	return b
}

// SeqInWindow reports whether seq falls within [base, base+size) in sequence
// space. A zero-size window contains nothing.
func SeqInWindow(seq, base uint32, size uint32) bool {
	return SeqGEQ(seq, base) && SeqLT(seq, base+size)
}

// IPID arithmetic, modulo 2^16. The dual connection test compares the IPIDs
// of two acknowledgments to recover the order the remote host sent them;
// 16-bit signed distance handles counter wraparound for gaps under 2^15.

// IPIDLess reports a < b in IPID space.
func IPIDLess(a, b uint16) bool { return int16(a-b) < 0 }

// IPIDDiff returns the signed distance a-b in IPID space.
func IPIDDiff(a, b uint16) int16 { return int16(a - b) }
