package experiments

import (
	"fmt"
	"math/rand"

	"nanoxbar/internal/arith"
	"nanoxbar/internal/latsynth"
)

// E9ArithSSM covers the paper's future-work objectives 3 and 4
// (Section V): arithmetic elements and a synchronous state machine
// realized on crossbar logic. It reports the lattice-network cost of
// ripple adders and comparators (versus the exploding flat
// single-lattice alternative) and verifies the "101" sequence-detector
// SSM against its reference automaton.
func E9ArithSSM() *Report {
	opts := latsynth.DefaultOptions()
	var rows [][]string
	metrics := map[string]float64{}

	// Adders: per-width network cost + correctness spot check.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8} {
		nw := arith.RippleAdder(n, opts)
		okAll := true
		for t := 0; t < 100; t++ {
			a := rng.Uint64() & (1<<uint(n) - 1)
			b := rng.Uint64() & (1<<uint(n) - 1)
			if arith.AddUint(nw, n, a, b) != a+b {
				okAll = false
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("adder%d", n), fmt.Sprint(nw.NumLattices()),
			fmt.Sprint(nw.TotalArea()), fmt.Sprint(okAll),
		})
		metrics[fmt.Sprintf("adder%d_area", n)] = float64(nw.TotalArea())
	}
	// Comparators.
	for _, n := range []int{2, 4} {
		nw := arith.Comparator(n, opts)
		okAll := true
		for a := uint64(0); a < 1<<uint(n); a++ {
			for b := uint64(0); b < 1<<uint(n); b++ {
				if arith.GreaterUint(nw, n, a, b) != (a > b) {
					okAll = false
				}
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("cmp%d", n), fmt.Sprint(nw.NumLattices()),
			fmt.Sprint(nw.TotalArea()), fmt.Sprint(okAll),
		})
	}
	lines := table("circuit\tlattices\ttotal area\tverified", rows)

	// SSM: synthesize the 101 detector, compare against the reference.
	spec := arith.SequenceDetector101()
	m, err := arith.SynthesizeSSM(spec, opts)
	if err != nil {
		lines = append(lines, "SSM synthesis failed: "+err.Error())
		return &Report{ID: "E9", Title: "arithmetic elements and SSM (Section V)", Lines: lines, Metrics: metrics}
	}
	in := make([]uint64, 200)
	for i := range in {
		in[i] = uint64(rng.Intn(2))
	}
	got := m.Run(in)
	want := spec.ReferenceRun(in)
	match := true
	for i := range want {
		if got[i] != want[i] {
			match = false
		}
	}
	lines = append(lines, fmt.Sprintf("SSM '101 detector': %d states, %d next-state lattices, logic area %d, 200-step equivalence: %v",
		spec.NumStates, len(m.NextBits), m.TotalArea(), match))
	metrics["ssm_equiv"] = b2f(match)
	return &Report{ID: "E9", Title: "arithmetic elements and SSM (Section V)", Lines: lines, Metrics: metrics}
}
