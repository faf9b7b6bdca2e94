package bism

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"nanoxbar/internal/defect"
)

// checkScalar is the per-crosspoint reference implementation of the
// BIST/BISD session. The property tests pin the mask-based check
// against it.
func (ch *Chip) checkScalar(app *App, m *Mapping) (ok bool, bad map[Resource]bool) {
	bad = make(map[Resource]bool)
	d := ch.defects
	selRow := make(map[int]bool, app.R)
	for _, pr := range m.Rows {
		selRow[pr] = true
	}
	selCol := make(map[int]bool, app.C)
	for _, pc := range m.Cols {
		selCol[pc] = true
	}
	for i, pr := range m.Rows {
		if d.RowBroken(pr) {
			bad[Resource{true, pr}] = true
		}
		for j, pc := range m.Cols {
			k := d.At(pr, pc)
			if app.Used[i][j] && k == defect.StuckOpen {
				bad[Resource{true, pr}] = true
				bad[Resource{false, pc}] = true
			}
			if !app.Used[i][j] && k == defect.StuckClosed {
				bad[Resource{true, pr}] = true
				bad[Resource{false, pc}] = true
			}
		}
	}
	for _, pc := range m.Cols {
		if d.ColBroken(pc) {
			bad[Resource{false, pc}] = true
		}
	}
	for r := 0; r+1 < ch.N; r++ {
		if d.RowBridge(r) && selRow[r] && selRow[r+1] {
			bad[Resource{true, r}] = true
			bad[Resource{true, r + 1}] = true
		}
	}
	for c := 0; c+1 < ch.N; c++ {
		if d.ColBridge(c) && selCol[c] && selCol[c+1] {
			bad[Resource{false, c}] = true
			bad[Resource{false, c + 1}] = true
		}
	}
	return len(bad) == 0, bad
}

// exactMapping is the exact feasibility oracle of defect-tolerant
// assignment, the question Hung et al. cast as satisfiability: it
// returns a valid mapping of app onto ch if one exists, else nil. It
// backtracks over injective column assignments, then over injective
// row assignments one logical row at a time, and reads the defect map
// crosspoint by crosspoint, independently of the mask session. It
// prunes a column prefix as soon as some logical row has no physical
// row compatible with the columns placed so far. Meant for dies up to
// 8×8 and applications up to 4×4: at worst P(8,4)² ≈ 2.8 M row checks.
func exactMapping(ch *Chip, app *App) *Mapping {
	d, n := ch.defects, ch.N
	m := &Mapping{Rows: make([]int, app.R), Cols: make([]int, app.C)}
	takenRow, takenCol := make([]bool, n), make([]bool, n)
	// fits reports whether logical row i may sit on physical row p given
	// the first k placed columns.
	fits := func(i, p, k int) bool {
		if d.RowBroken(p) {
			return false
		}
		for j := 0; j < k; j++ {
			s := d.At(p, m.Cols[j])
			if app.Used[i][j] && s == defect.StuckOpen || !app.Used[i][j] && s == defect.StuckClosed {
				return false
			}
		}
		return true
	}
	// free reports whether line p may join the selection without a
	// bridge to a selected neighbour.
	free := func(taken []bool, bridge func(int) bool, p int) bool {
		return !taken[p] && !(p > 0 && taken[p-1] && bridge(p-1)) && !(p+1 < n && taken[p+1] && bridge(p))
	}
	var placeRow func(i int) bool
	placeRow = func(i int) bool {
		if i == app.R {
			return true
		}
		for p := 0; p < n; p++ {
			if free(takenRow, d.RowBridge, p) && fits(i, p, app.C) {
				takenRow[p], m.Rows[i] = true, p
				if placeRow(i + 1) {
					return true
				}
				takenRow[p] = false
			}
		}
		return false
	}
	var placeCol func(j int) bool
	placeCol = func(j int) bool {
		for i := 0; i < app.R; i++ {
			some := false
			for p := 0; p < n && !some; p++ {
				some = fits(i, p, j)
			}
			if !some {
				return false
			}
		}
		if j == app.C {
			return placeRow(0)
		}
		for p := 0; p < n; p++ {
			if free(takenCol, d.ColBridge, p) && !d.ColBroken(p) {
				takenCol[p], m.Cols[j] = true, p
				if placeCol(j + 1) {
					return true
				}
				takenCol[p] = false
			}
		}
		return false
	}
	if placeCol(0) {
		return m
	}
	return nil
}

// anyValidMapping enumerates every injective assignment and asks the
// mask session — the unpruned cross-check of exactMapping on tiny dies.
func anyValidMapping(ch *Chip, app *App) bool {
	m := &Mapping{Rows: make([]int, app.R), Cols: make([]int, app.C)}
	var walk func(lines []int, k int, taken []bool, next func() bool) bool
	walk = func(lines []int, k int, taken []bool, next func() bool) bool {
		if k == len(lines) {
			return next()
		}
		for p := range taken {
			if !taken[p] {
				taken[p], lines[k] = true, p
				ok := walk(lines, k+1, taken, next)
				taken[p] = false
				if ok {
					return true
				}
			}
		}
		return false
	}
	return walk(m.Cols, 0, make([]bool, ch.N), func() bool {
		return walk(m.Rows, 0, make([]bool, ch.N), func() bool { return Validate(ch, app, m) })
	})
}

// oracleDie draws a die of side 4–8 and an application of 2–4 rows and
// columns, with every defect kind at a rate around density.
func oracleDie(rng *rand.Rand, density float64) (*Chip, *App) {
	n := 4 + rng.Intn(5)
	d := defect.Random(n, n, defect.UniformCrosspoint(density), rng)
	addWireFaults(d, rng, density/4, density/4, density/4, density/4)
	return NewChip(d), RandomApp(2+rng.Intn(3), 2+rng.Intn(3), 0.5, rng)
}

// TestExactOracleIsExact pins the pruned oracle to exhaustive
// enumeration through the mask session on dies small enough to
// enumerate, and checks every witness it returns passes Validate.
func TestExactOracleIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	feasible := 0
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(3)
		density := []float64{0.2, 0.4, 0.6}[trial%3]
		d := defect.Random(n, n, defect.UniformCrosspoint(density), rng)
		addWireFaults(d, rng, density/4, density/4, density/4, density/4)
		ch := NewChip(d)
		app := RandomApp(2+rng.Intn(2), 2+rng.Intn(2), 0.5, rng)
		w := exactMapping(ch, app)
		if w != nil && !Validate(ch, app, w) {
			t.Fatalf("trial %d: oracle witness %+v fails Validate", trial, w)
		}
		if want := anyValidMapping(ch, app); (w != nil) != want {
			t.Fatalf("trial %d: oracle says feasible=%v, enumeration %v", trial, w != nil, want)
		}
		if w != nil {
			feasible++
		}
	}
	if feasible < 50 || feasible > 350 {
		t.Fatalf("%d of 400 dies feasible: the draw does not exercise both answers", feasible)
	}
}

// TestSchemesBoundedByOracle holds every scheme to the exact oracle on
// dies up to 8×8: a claimed success passes Validate and lands only on a
// die the oracle finds feasible. It logs greedy's success rate next to
// the feasible fraction — greedy's gap to the best any scheme could do.
func TestSchemesBoundedByOracle(t *testing.T) {
	// Dies and mapper streams are separate, so the dies stay the same
	// when a mapper's use of its stream changes.
	dieRng, rng := rand.New(rand.NewSource(43)), rand.New(rand.NewSource(44))
	for _, density := range []float64{0.2, 0.35, 0.5} {
		const dies = 300
		feasible, wins := 0, map[string]int{}
		for die := 0; die < dies; die++ {
			ch, app := oracleDie(dieRng, density)
			ok := exactMapping(ch, app) != nil
			if ok {
				feasible++
			}
			for _, s := range []Mapper{Blind{}, Greedy{}, Hybrid{}} {
				m, st := s.Map(ch, app, 50, rng)
				if st.Success != (m != nil) {
					t.Fatalf("d=%v die %d: %s success %v with mapping %v", density, die, s.Name(), st.Success, m)
				}
				if m == nil {
					continue
				}
				if !Validate(ch, app, m) {
					t.Fatalf("d=%v die %d: %s claimed an invalid mapping", density, die, s.Name())
				}
				if !ok {
					t.Fatalf("d=%v die %d: %s mapped a die the oracle rejects", density, die, s.Name())
				}
				wins[s.Name()]++
			}
		}
		t.Logf("d=%v: feasible %d/%d, greedy %d, hybrid %d, blind %d", density, feasible, dies, wins["greedy"], wins["hybrid(4)"], wins["blind"])
	}
}

// diagnose runs one mask-based BIST+BISD session against the mapping
// and returns the diagnosis as a Resource list.
func diagnose(ch *Chip, app *App, m *Mapping) (ok bool, bad []Resource) {
	scr := getScratch(ch.N, app.R)
	defer putScratch(scr)
	if ch.check(app, m, scr) {
		return true, nil
	}
	return false, resources(&scr.bad)
}

// Resource identifies a physical line reported defective by BISD.
type Resource struct {
	IsRow bool
	Index int // physical line index
}

func (r Resource) String() string {
	if r.IsRow {
		return fmt.Sprintf("row%d", r.Index)
	}
	return fmt.Sprintf("col%d", r.Index)
}

// resources expands a diagnosis into a Resource list.
func resources(b *BadSet) []Resource {
	var res []Resource
	for i := range b.rows {
		for w := b.rows[i]; w != 0; w &= w - 1 {
			res = append(res, Resource{true, i<<6 + bits.TrailingZeros64(w)})
		}
	}
	for i := range b.cols {
		for w := b.cols[i]; w != 0; w &= w - 1 {
			res = append(res, Resource{false, i<<6 + bits.TrailingZeros64(w)})
		}
	}
	return res
}
