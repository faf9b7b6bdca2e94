package experiments

import (
	"fmt"
	"math/rand"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/bist"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/dflow"
)

// E6BIST reproduces §IV-A: exhaustive single-fault coverage with a
// size-independent configuration count, and diagnosis with a
// logarithmic configuration count and resource-unique syndromes.
func E6BIST() *Report {
	var rows [][]string
	metrics := map[string]float64{}
	for _, sh := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 32}, {8, 16}, {16, 8}} {
		r, c := sh[0], sh[1]
		det := bist.DetectionSuite(r, c)
		covered, total := det.Coverage()
		diag := bist.DiagnosisSuite(r, c)
		amb := 0
		for _, group := range diag.SyndromeTable() {
			if len(group) > 1 {
				amb++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d×%d", r, c),
			fmt.Sprint(total),
			fmt.Sprintf("%d/%d", covered, total),
			fmt.Sprint(det.NumConfigs()), fmt.Sprint(det.NumVectors()),
			fmt.Sprint(diag.NumConfigs()), fmt.Sprint(bist.LogBound(r, c)),
			fmt.Sprint(amb),
		})
		if r == 16 && c == 16 {
			metrics["coverage_16"] = float64(covered) / float64(total)
		}
	}
	lines := table("array\tfaults\tdetected\tdet-cfgs\tdet-vecs\tdiag-cfgs\tlog-bound\tsame-resource-groups", rows)
	lines = append(lines, "detection coverage is exhaustive; diagnosis configurations grow as Θ(log RC)")
	return &Report{ID: "E6", Title: "BIST coverage and logarithmic BISD (§IV-A)", Lines: lines, Metrics: metrics}
}

// E7Params size the BISM Monte Carlo.
type E7Params struct {
	N           int     // chip dimension
	AppDim      int     // application dimension
	AppDensity  float64 // closed-crosspoint density of the application
	Trials      int
	MaxAttempts int
	DiagCost    float64 // BISD session cost relative to BIST
	Densities   []float64
	Seed        int64
}

// DefaultE7Params match the regime sweep in EXPERIMENTS.md.
func DefaultE7Params() E7Params {
	return E7Params{
		N: 32, AppDim: 8, AppDensity: 0.5, Trials: 60, MaxAttempts: 300,
		DiagCost:  10,
		Densities: []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.15},
		Seed:      42,
	}
}

// E7BISM reproduces §IV-B: blind vs greedy vs hybrid self-mapping
// across defect densities — blind cheap at low density, greedy robust
// at high density, hybrid tracking the better of the two everywhere.
func E7BISM(p E7Params) *Report {
	rng := rand.New(rand.NewSource(p.Seed))
	mappers := []bism.Mapper{bism.Blind{}, bism.Greedy{}, bism.Hybrid{BlindBudget: 4}}
	var rows [][]string
	metrics := map[string]float64{}
	for _, density := range p.Densities {
		type acc struct {
			ok      int
			configs int
			cost    float64
		}
		accs := make([]acc, len(mappers))
		for trial := 0; trial < p.Trials; trial++ {
			dm := defect.Random(p.N, p.N, defect.UniformCrosspoint(density), rng)
			app := bism.RandomApp(p.AppDim, p.AppDim, p.AppDensity, rng)
			ch := bism.NewChip(dm)
			for mi, m := range mappers {
				mp, st := m.Map(ch, app, p.MaxAttempts, rng)
				if mp != nil {
					accs[mi].ok++
				}
				accs[mi].configs += st.Configs
				accs[mi].cost += st.Cost(p.DiagCost)
			}
		}
		for mi, m := range mappers {
			a := accs[mi]
			rows = append(rows, []string{
				fmt.Sprintf("%.3f", density), m.Name(),
				fmt.Sprintf("%d%%", a.ok*100/p.Trials),
				fmt.Sprintf("%.1f", float64(a.configs)/float64(p.Trials)),
				fmt.Sprintf("%.1f", a.cost/float64(p.Trials)),
			})
			metrics[fmt.Sprintf("%s_ok_%.3f", m.Name(), density)] = float64(a.ok) / float64(p.Trials)
		}
	}
	lines := table("density\tscheme\tsuccess\tmean-configs\tmean-cost", rows)
	lines = append(lines, fmt.Sprintf("chip %d×%d, app %d×%d (density %.2f), budget %d configs, BISD cost %.0f× BIST",
		p.N, p.N, p.AppDim, p.AppDim, p.AppDensity, p.MaxAttempts, p.DiagCost))
	return &Report{ID: "E7", Title: "blind / greedy / hybrid BISM (§IV-B)", Lines: lines, Metrics: metrics}
}

// E8Params size the defect-unaware flow study.
type E8Params struct {
	Ns        []int
	Densities []float64
	Trials    int
	Seed      int64
	NChips    int
	NApps     int
}

// DefaultE8Params match EXPERIMENTS.md.
func DefaultE8Params() E8Params {
	return E8Params{
		Ns:        []int{16, 32, 64},
		Densities: []float64{0.01, 0.05, 0.10, 0.20},
		Trials:    40,
		Seed:      7,
		NChips:    1000,
		NApps:     10,
	}
}

// E8DefectUnaware reproduces Fig. 6: the recoverable k×k sub-crossbar
// size across array sizes and defect densities, the O(N) descriptor,
// and the flow-cost comparison between the traditional defect-aware and
// the proposed defect-unaware flow.
func E8DefectUnaware(p E8Params) *Report {
	rng := rand.New(rand.NewSource(p.Seed))
	var rows [][]string
	metrics := map[string]float64{}
	for _, n := range p.Ns {
		for _, density := range p.Densities {
			sumK := 0
			for t := 0; t < p.Trials; t++ {
				m := defect.Random(n, n, defect.UniformCrosspoint(density), rng)
				sumK += dflow.Greedy(m).K()
			}
			meanK := float64(sumK) / float64(p.Trials)
			e := dflow.Greedy(defect.NewMap(n, n))
			rows = append(rows, []string{
				fmt.Sprint(n), fmt.Sprintf("%.2f", density),
				fmt.Sprintf("%.1f", meanK),
				fmt.Sprintf("%.0f%%", 100*meanK/float64(n)),
				fmt.Sprint(e.DescriptorBits(n)), fmt.Sprint(dflow.RawMapBits(n)),
			})
			metrics[fmt.Sprintf("meanK_n%d_p%.2f", n, density)] = meanK
		}
	}
	lines := table("N\tdensity\tmean k\tk/N\tdescriptor bits (k=N)\traw map bits", rows)

	// Flow cost comparison at a representative recovery point.
	n := 64
	m := defect.Random(n, n, defect.UniformCrosspoint(0.05), rng)
	k := dflow.Greedy(m).K()
	var costRows [][]string
	for _, chips := range []int{1, 10, 100, p.NChips} {
		aware, unaware := dflow.CompareFlows(n, k, chips, p.NApps, dflow.DefaultCosts())
		costRows = append(costRows, []string{
			fmt.Sprint(chips), fmt.Sprint(p.NApps), fmt.Sprint(k),
			fmt.Sprintf("%.0f", aware), fmt.Sprintf("%.0f", unaware),
			fmt.Sprintf("%.2f×", aware/unaware),
		})
	}
	lines = append(lines, "")
	lines = append(lines, table("chips\tapps\tk\taware-cost\tunaware-cost\tadvantage", costRows)...)
	aware, unaware := dflow.CompareFlows(n, k, p.NChips, p.NApps, dflow.DefaultCosts())
	metrics["cost_advantage"] = aware / unaware
	return &Report{ID: "E8", Title: "defect-unaware design flow (Fig. 6)", Lines: lines, Metrics: metrics}
}
