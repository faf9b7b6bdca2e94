package experiments

import (
	"fmt"
	"math/rand"

	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/dreduce"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/pcircuit"
)

// E4PCircuit reproduces §III-B-1: lattice areas with and without the
// P-circuit decomposition preprocessing, under both the dual-method [2]
// synthesizer (exact covers) and the ISOP-based heuristic covers (the
// stand-in for the second synthesis method the paper applies).
func E4PCircuit() *Report {
	type variant struct {
		name string
		opts latsynth.Options
	}
	variants := []variant{
		{"exact", latsynth.DefaultOptions()},
		{"isop", latsynth.Options{Exact: false, Cells: latsynth.MostFrequent, PostReduce: true}},
	}
	var rows [][]string
	improved := map[string]int{}
	tried := map[string]int{}
	for _, s := range e4Functions() {
		for _, v := range variants {
			base, err := latsynth.DualMethod(s.F, v.opts)
			if err != nil {
				continue
			}
			dec, err := pcircuit.Best(s.F, pcircuit.Options{Synth: v.opts, Mode: pcircuit.WithIntersection})
			if err != nil {
				continue
			}
			tried[v.name]++
			delta := "="
			if dec.Area() < base.Area() {
				improved[v.name]++
				delta = fmt.Sprintf("-%d%%", (base.Area()-dec.Area())*100/base.Area())
			} else if dec.Area() > base.Area() {
				delta = fmt.Sprintf("+%d%%", (dec.Area()-base.Area())*100/base.Area())
			}
			rows = append(rows, []string{
				s.Name, v.name, fmt.Sprint(base.Area()),
				fmt.Sprint(dec.Area()), fmt.Sprintf("x%d/%v", dec.Var+1, dec.Mode), delta,
			})
		}
	}
	lines := table("name\tcovers\tdual\tpcircuit\tsplit\tΔ", rows)
	for _, v := range variants {
		lines = append(lines, fmt.Sprintf("%s covers: decomposition improved %d/%d functions",
			v.name, improved[v.name], tried[v.name]))
	}
	return &Report{
		ID:    "E4",
		Title: "P-circuit decomposition preprocessing (§III-B-1)",
		Lines: lines,
		Metrics: map[string]float64{
			"improved_exact": float64(improved["exact"]),
			"tried_exact":    float64(tried["exact"]),
			"improved_isop":  float64(improved["isop"]),
		},
	}
}

// e4Functions picks decomposition-friendly benchmark shapes: mux-like
// and mixed-support functions where projections genuinely shrink.
func e4Functions() []benchfn.Spec {
	specs := []benchfn.Spec{
		benchfn.Mux(1),
		benchfn.Mux(2),
		benchfn.Majority(5),
		benchfn.Threshold(6, 2),
		benchfn.AdderBit(2, 1),
		benchfn.ComparatorGT(2),
		benchfn.Rd(5, 1),
	}
	for seed := int64(10); seed < 16; seed++ {
		specs = append(specs, benchfn.RandomDensity(6, 0.35, seed))
	}
	return specs
}

// E5DReducible reproduces §III-B-2: lattice areas with and without the
// D-reducibility preprocessing on a seeded family of D-reducible
// functions across dimensions and codimensions.
func E5DReducible() *Report {
	opts := latsynth.DefaultOptions()
	var rows [][]string
	improved, tried := 0, 0
	bigImproved, bigTried := 0, 0 // the n=8, codim≤2 subclass
	var sumDirect, sumDecomp float64
	for _, n := range []int{6, 7, 8} {
		for _, codim := range []int{1, 2, 3} {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(100*int64(n) + 10*int64(codim) + seed))
				f, _ := dreduce.RandomDReducible(n, codim, 0.5, rng)
				direct, err := latsynth.DualMethod(f, opts)
				if err != nil {
					continue
				}
				dec, err := dreduce.Synthesize(f, opts)
				if err != nil {
					continue
				}
				tried++
				sumDirect += float64(direct.Area())
				sumDecomp += float64(dec.Area())
				mark := "="
				if dec.Area() < direct.Area() {
					improved++
					mark = "better"
				} else if dec.Area() > direct.Area() {
					mark = "worse"
				}
				if n == 8 && codim <= 2 {
					bigTried++
					if dec.Area() < direct.Area() {
						bigImproved++
					}
				}
				rows = append(rows, []string{
					fmt.Sprintf("n=%d codim=%d seed=%d", n, codim, seed),
					fmt.Sprint(dec.Analysis.Affine.Dim()),
					fmt.Sprint(direct.Area()), fmt.Sprint(dec.Area()), mark,
				})
			}
		}
	}
	lines := table("function\tdim(A)\tdirect\tdreduce\tresult", rows)
	lines = append(lines,
		fmt.Sprintf("decomposition improved %d/%d; mean area %.1f → %.1f",
			improved, tried, sumDirect/float64(tried), sumDecomp/float64(tried)),
		fmt.Sprintf("large/low-codim subclass (n=8, codim≤2): improved %d/%d — the regime the technique targets",
			bigImproved, bigTried))
	return &Report{
		ID:    "E5",
		Title: "D-reducible preprocessing (§III-B-2)",
		Lines: lines,
		Metrics: map[string]float64{
			"improved":     float64(improved),
			"tried":        float64(tried),
			"big_improved": float64(bigImproved),
			"big_tried":    float64(bigTried),
			"mean_direct":  sumDirect / float64(tried),
			"mean_dec":     sumDecomp / float64(tried),
		},
	}
}
