package sim

import "math/rand/v2"

// Rand is the deterministic random source used by every stochastic component
// in the simulation. It wraps math/rand/v2 with a fixed, explicit seed so
// that experiments are exactly reproducible, and adds the small distribution
// helpers the network model needs.
//
// The PCG state and the rand.Rand wrapper are embedded by value, so a Rand
// is a single allocation — and zero allocations when reinitialized in place
// via Reseed or ForkInto, which is what lets pooled network elements rebuild
// their streams without touching the heap. Because r holds an interior
// pointer to pcg, a Rand must not be copied; use it through the pointer
// NewRand returns.
type Rand struct {
	pcg rand.PCG
	r   rand.Rand
}

// NewRand returns a Rand seeded from the two words. Components derive their
// own streams via Fork so that adding a component does not perturb the draws
// seen by others.
func NewRand(seed1, seed2 uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed1, seed2)
	return r
}

// Reseed rewinds the stream to the state NewRand(seed1, seed2) produces,
// without allocating; r may be a zero Rand, as in NewRand. Reused scenario
// arenas call it so a reset run draws exactly the sequence a fresh
// construction would.
func (r *Rand) Reseed(seed1, seed2 uint64) {
	r.pcg.Seed(seed1, seed2)
	r.r = *rand.New(&r.pcg)
}

// Fork returns an independent stream derived from r and a label. Forking is
// deterministic: the same parent seed and label always produce the same
// child stream.
func (r *Rand) Fork(label uint64) *Rand {
	return NewRand(r.r.Uint64(), label^forkMix)
}

// ForkInto reseeds child, which may be a zero Rand, to the exact stream
// Fork(label) would return, consuming the same single draw from r and
// allocating nothing. Pooled topology elements rebuild their per-scenario
// streams this way; a nil child falls back to Fork.
func (r *Rand) ForkInto(child *Rand, label uint64) *Rand {
	if child == nil {
		return r.Fork(label)
	}
	child.Reseed(r.r.Uint64(), label^forkMix)
	return child
}

// forkMix decorrelates fork labels from the raw seed space.
const forkMix = 0x9e3779b97f4a7c15

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.r.Uint64() }

// IntN returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.r.IntN(n) }

// Uint16 returns a uniform 16-bit value.
func (r *Rand) Uint16() uint16 { return uint16(r.r.Uint64()) }

// Uint32 returns a uniform 32-bit value.
func (r *Rand) Uint32() uint32 { return r.r.Uint32() }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *Rand) ExpFloat64() float64 { return r.r.ExpFloat64() }
