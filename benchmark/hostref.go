package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// The host-speed reference. The defining host is a small guest on a shared
// machine, and what it shares is the memory system and the cores' issue
// width: a chain of dependent arithmetic keeps its pace to 2% while every
// workload of this benchmark, and a chain of dependent loads over a table
// that stays in the last-level cache only while the neighbours leave it
// there, slow down together by up to 40%, in regimes that last minutes
// (README.md, "Noise on the defining host", has the measurements). No amount
// of work inside one run averages out a regime that outlasts the run, so the
// run measures the regime beside the program: between passes every worker
// walks such a chain, and the time-based end-to-end metrics are reported at
// the reference's nominal speed — seconds as clocked × refNominalNs ÷ the
// reference's lower-quartile ns per load in this run. The reference is
// frozen here, in the benchmark's own files, and the program under test
// never sees it.
const (
	// refTableBytes is each worker's table: one cyclic permutation of
	// 4-byte indices.
	refTableBytes = 8 << 20
	// refLoads is the dependent loads of one sample, ~20 ms.
	refLoads = 300_000
	// refSamples is the samples taken before every set-up and pass and at
	// the end of the run. A sample costs a twentieth of a survey pass and
	// scatters as much as one, so the run's two lower quartiles are equally
	// sharp at about four samples a pass. The first of the four finds the
	// table evicted by the pass and reads half as much again; the lower
	// quartile is a figure of the warm walks.
	refSamples = 4
	// refNominalNs is the reference speed the metrics are reported at: the
	// defining host's lower-quartile ns per load in its fast regime.
	refNominalNs = 60.0
)

type hostRef struct {
	tables [][]uint32
	sink   uint32
}

// newHostRef builds one table per worker. Sattolo's shuffle makes each a
// single cycle, so a walk of any length never revisits a short loop; the
// seed is fixed, the tables are not an input of the program.
func newHostRef(workers int) *hostRef {
	h := &hostRef{}
	for g := 0; g < workers; g++ {
		rng := rand.New(rand.NewPCG(0x686f7374, uint64(g)))
		next := make([]uint32, refTableBytes/4)
		for i := range next {
			next[i] = uint32(i)
		}
		for i := len(next) - 1; i > 0; i-- {
			j := rng.IntN(i)
			next[i], next[j] = next[j], next[i]
		}
		h.tables = append(h.tables, next)
	}
	return h
}

// sample walks loads dependent loads on every worker at once, as a pass
// keeps every worker busy at once, and returns the nanoseconds per load.
func (h *hostRef) sample(loads int) float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for _, next := range h.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := uint32(0)
			for i := 0; i < loads; i++ {
				p = next[p]
			}
			mu.Lock()
			h.sink += p // keeps the walk from being optimised away
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(loads)
}
