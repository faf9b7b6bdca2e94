package experiments

import (
	"fmt"
	"math"

	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/core"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/xbar2t"
)

// E1TwoTerminalSizes reproduces Fig. 3: the diode and FET array size
// formulas, anchored on the paper's worked example (diode 2×5, FET 4×4
// for f = x1x2 + x1'x2'), across the benchmark suite.
func E1TwoTerminalSizes() *Report {
	opts := latsynth.DefaultOptions()
	var rows [][]string
	metrics := map[string]float64{}
	for _, s := range benchfn.Suite() {
		fc, dc, exact := latsynth.Covers(s.F, opts)
		sz := xbar2t.FormulaSizes(fc, dc)
		sop := "exact"
		if !exact {
			sop = "isop"
		}
		rows = append(rows, []string{
			s.Name, fmt.Sprint(s.N()), sop,
			fmt.Sprint(fc.NumProducts()), fmt.Sprint(fc.DistinctLiterals()), fmt.Sprint(dc.NumProducts()),
			fmt.Sprintf("%d×%d", sz.DiodeRows, sz.DiodeCols),
			fmt.Sprintf("%d×%d", sz.FETRows, sz.FETCols),
			fmt.Sprint(sz.DiodeArea()), fmt.Sprint(sz.FETArea()),
		})
		if s.Name == "xnor2" {
			metrics["xnor2_diode_area"] = float64(sz.DiodeArea())
			metrics["xnor2_fet_area"] = float64(sz.FETArea())
		}
	}
	return &Report{
		ID:      "E1",
		Title:   "two-terminal array sizes (Fig. 3 formulas)",
		Lines:   table("name\tn\tsop\tP(f)\tL(f)\tP(fD)\tdiode\tFET\tdA\tfA", rows),
		Metrics: metrics,
	}
}

// E2FourTerminalComparison reproduces the Fig. 5 formula and the paper's
// headline claim that four-terminal lattices offer favorably better
// sizes than the two-terminal implementations.
func E2FourTerminalComparison() *Report {
	opts := core.DefaultOptions()
	var rows [][]string
	wins, total := 0, 0
	var logDiode, logFET, logLat float64
	for _, s := range benchfn.Suite() {
		cmp, err := core.CompareTechnologies(s.F, opts)
		if err != nil {
			rows = append(rows, []string{s.Name, "error: " + err.Error()})
			continue
		}
		total++
		la, da, fa := cmp.Lattice.Area(), cmp.Diode.Area(), cmp.FET.Area()
		logDiode += math.Log(float64(da))
		logFET += math.Log(float64(fa))
		logLat += math.Log(float64(la))
		winner := "lattice"
		if la > da || la > fa {
			winner = "2T"
		} else {
			wins++
		}
		rows = append(rows, []string{
			s.Name, fmt.Sprint(s.N()),
			fmt.Sprintf("%d×%d", cmp.Diode.Rows, cmp.Diode.Cols),
			fmt.Sprintf("%d×%d", cmp.FET.Rows, cmp.FET.Cols),
			fmt.Sprintf("%d×%d", cmp.Lattice.Rows, cmp.Lattice.Cols),
			cmp.Lattice.Method,
			fmt.Sprint(da), fmt.Sprint(fa), fmt.Sprint(la), winner,
		})
	}
	gm := func(logSum float64) float64 { return math.Exp(logSum / float64(total)) }
	lines := table("name\tn\tdiode\tFET\tlattice\tmethod\tdA\tfA\tlA\twinner", rows)
	lines = append(lines,
		fmt.Sprintf("lattice smallest-or-tied on %d/%d functions", wins, total),
		fmt.Sprintf("geomean areas: diode %.1f, FET %.1f, lattice %.1f",
			gm(logDiode), gm(logFET), gm(logLat)))
	return &Report{
		ID:    "E2",
		Title: "diode vs FET vs four-terminal lattice areas (Fig. 5, §I claim)",
		Lines: lines,
		Metrics: map[string]float64{
			"lattice_wins":    float64(wins),
			"total":           float64(total),
			"mean_diode_area": gm(logDiode),
			"mean_lat_area":   gm(logLat),
		},
	}
}

// E3Fig4 reproduces the paper's Fig. 4 worked example: the hand-crafted
// 3×2 lattice computing x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6, its path
// products, and the sizes the synthesis methods achieve on the same
// function.
func E3Fig4() *Report {
	spec := benchfn.Fig4()
	hand := lattice.New(3, 2)
	for i := 0; i < 3; i++ {
		hand.Set(i, 0, lattice.Lit(i, false))
		hand.Set(i, 1, lattice.Lit(3+i, false))
	}
	lines := []string{"hand lattice (Fig. 4):"}
	lines = append(lines, hand.String())
	ok := hand.ImplementsFast(spec.F)
	lines = append(lines, fmt.Sprintf("hand lattice implements caption SOP: %v", ok))
	paths, err := hand.Paths(100000)
	if err == nil {
		lines = append(lines, fmt.Sprintf("path products: %v", paths))
	}
	res, err := latsynth.DualMethod(spec.F, latsynth.DefaultOptions())
	metrics := map[string]float64{"hand_area": float64(hand.Area()), "correct": b2f(ok)}
	if err == nil {
		lines = append(lines, fmt.Sprintf("dual-method synthesis: %d×%d (area %d), hand area %d",
			res.Lattice.R, res.Lattice.C, res.Area(), hand.Area()))
		metrics["dual_area"] = float64(res.Area())
	}
	return &Report{ID: "E3", Title: "Fig. 4 four-terminal lattice example", Lines: lines, Metrics: metrics}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
