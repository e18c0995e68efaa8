package campaign

// SyntheticResults builds n deterministic TargetResults without probing,
// so the repository benchmark's aggregation legs (benchmark/layers.go)
// isolate aggregation cost from probe cost. A cheap LCG keeps the stream
// deterministic and allocation-free.
func SyntheticResults(n int) []*TargetResult {
	tests := []string{"single", "dual", "syn", "transfer"}
	results := make([]*TargetResult, n)
	for i := range results {
		rng := uint64(i)*6364136223846793005 + 1442695040888963407
		draw := func(mod uint64) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % mod)
		}
		r := &TargetResult{
			Index: i, Name: "synthetic", Profile: "freebsd4", Impairment: "clean",
			Test: tests[i%len(tests)], Attempts: 1,
			FwdValid: 8, FwdReordered: draw(9), RevValid: 8, RevReordered: draw(9),
			RTTMicros: int64(500 + draw(200000)),
		}
		r.FwdRate = float64(r.FwdReordered) / 8
		r.RevRate = float64(r.RevReordered) / 8
		r.AnyReordering = r.FwdReordered+r.RevReordered > 0
		if r.Test == "transfer" {
			r.SeqReceived = 20
			r.SeqMaxExtent = draw(12)
			r.SeqNReordering = draw(4)
			r.SeqDupthreshExposure = float64(r.SeqNReordering) / 20
		}
		results[i] = r
	}
	return results
}
