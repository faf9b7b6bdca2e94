package bism

import (
	"fmt"
	"math/rand"
	"testing"

	"nanoxbar/internal/defect"
)

func cleanChip(n int) *Chip { return NewChip(defect.NewMap(n, n)) }

func TestCleanChipFirstTry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	app := RandomApp(4, 4, 0.5, rng)
	for _, m := range []Mapper{Blind{}, Greedy{}, Hybrid{}} {
		mp, st := m.Map(cleanChip(8), app, 100, rng)
		if mp == nil || !st.Success {
			t.Fatalf("%s failed on a clean chip", m.Name())
		}
		if st.Configs != 1 || st.BISTCalls != 1 || st.BISDCalls != 0 {
			t.Fatalf("%s stats on clean chip: %+v", m.Name(), st)
		}
	}
}

func TestReturnedMappingsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 12 + rng.Intn(8)
		d := defect.Random(n, n, defect.UniformCrosspoint(0.02), rng)
		ch := NewChip(d)
		app := RandomApp(4, 4, 0.4, rng)
		for _, m := range []Mapper{Blind{}, Greedy{}, Hybrid{}} {
			mp, st := m.Map(ch, app, 500, rng)
			if mp == nil {
				continue // may legitimately fail
			}
			if !st.Success {
				t.Fatalf("%s returned mapping without success flag", m.Name())
			}
			if !Validate(ch, app, mp) {
				t.Fatalf("%s returned an invalid mapping", m.Name())
			}
			// Injectivity.
			seen := map[int]bool{}
			for _, r := range mp.Rows {
				if seen[r] {
					t.Fatalf("%s duplicated physical row", m.Name())
				}
				seen[r] = true
			}
		}
	}
}

func TestMappingAvoidsDefects(t *testing.T) {
	// A chip defective everywhere except one clean 2×2 corner: any
	// valid mapping of a full 2×2 app must land exactly there.
	n := 6
	d := defect.NewMap(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if r >= 2 || c >= 2 {
				d.Set(r, c, defect.StuckOpen)
			}
		}
	}
	app := NewApp([][]bool{{true, true}, {true, true}})
	ch := NewChip(d)
	rng := rand.New(rand.NewSource(3))
	mp, st := Greedy{}.Map(ch, app, 20000, rng)
	if mp == nil {
		t.Fatalf("greedy failed to find the clean corner: %+v", st)
	}
	for _, r := range mp.Rows {
		if r >= 2 {
			t.Fatalf("mapping uses defective row %d", r)
		}
	}
	for _, c := range mp.Cols {
		if c >= 2 {
			t.Fatalf("mapping uses defective col %d", c)
		}
	}
}

func TestStuckClosedBlocksUnusedCrosspoint(t *testing.T) {
	// App uses (0,0) and (1,1) but not (0,1); a stuck-closed at the
	// mapped (0,1) intersection must invalidate the mapping.
	d := defect.NewMap(2, 2)
	d.Set(0, 1, defect.StuckClosed)
	ch := NewChip(d)
	app := NewApp([][]bool{{true, false}, {false, true}})
	// Identity mapping hits the stuck-closed cell.
	ok, bad := diagnose(ch, app, &Mapping{Rows: []int{0, 1}, Cols: []int{0, 1}})
	if ok {
		t.Fatal("stuck-closed on an unused crosspoint must fail BIST")
	}
	if len(bad) == 0 {
		t.Fatal("diagnosis must name resources")
	}
	// Swapped rows: logical (0,·) on physical row 1; physical (0,1)
	// now sits at logical (1,1) which IS used → stuck-closed harmless.
	ok, _ = diagnose(ch, app, &Mapping{Rows: []int{1, 0}, Cols: []int{0, 1}})
	if !ok {
		t.Fatal("swap should tolerate the stuck-closed crosspoint")
	}
}

func TestBridgesBlockAdjacency(t *testing.T) {
	d := defect.NewMap(4, 4)
	d.SetRowBridge(1, true) // rows 1,2 bridged
	ch := NewChip(d)
	app := NewApp([][]bool{{true, true}, {true, true}})
	// Mapping using both bridged rows fails.
	ok, _ := diagnose(ch, app, &Mapping{Rows: []int{1, 2}, Cols: []int{0, 1}})
	if ok {
		t.Fatal("bridged selected rows must fail")
	}
	// Skipping row 2 is fine.
	ok, _ = diagnose(ch, app, &Mapping{Rows: []int{1, 3}, Cols: []int{0, 1}})
	if !ok {
		t.Fatal("non-adjacent selection must pass")
	}
}

// TestCheckMatchesScalarReference is the mask-equivalence property
// test: the word-plane BIST/BISD session must agree with the retained
// per-crosspoint reference — pass/fail verdict and the exact diagnosed
// resource set — over random chips, applications and mappings,
// including wire faults and bridges around word boundaries.
func TestCheckMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(80) // crosses the 64-line word boundary
		p := defect.Params{
			PStuckOpen:   rng.Float64() * 0.1,
			PStuckClosed: rng.Float64() * 0.1,
			PRowBreak:    rng.Float64() * 0.1,
			PColBreak:    rng.Float64() * 0.1,
			PRowBridge:   rng.Float64() * 0.1,
			PColBridge:   rng.Float64() * 0.1,
		}
		d := defect.Random(n, n, p, rng)
		ch := NewChip(d)
		appDim := 1 + rng.Intn(n)
		app := RandomApp(appDim, appDim, rng.Float64(), rng)
		scr := getScratch(ch.N, app.R)
		m := scr.mapping(app)
		scr.randomMapping(ch.N, app, rng, m)

		gotOK := ch.check(app, m, scr)
		wantOK, wantBad := ch.checkScalar(app, m)
		if gotOK != wantOK {
			t.Fatalf("trial %d (n=%d): mask check %v, scalar %v\n%s", trial, n, gotOK, wantOK, d)
		}
		gotBad := map[Resource]bool{}
		if !gotOK {
			for _, r := range resources(&scr.bad) {
				gotBad[r] = true
			}
		}
		if len(gotBad) != len(wantBad) {
			t.Fatalf("trial %d (n=%d): diagnosis size %d, scalar %d\nmask: %v\nscalar: %v",
				trial, n, len(gotBad), len(wantBad), gotBad, wantBad)
		}
		for r := range wantBad {
			if !gotBad[r] {
				t.Fatalf("trial %d (n=%d): scalar diagnoses %v, mask does not", trial, n, r)
			}
		}
		putScratch(scr)
	}
}

func TestBlindDegradesGreedySurvives(t *testing.T) {
	// At high defect density blind almost never succeeds within a
	// small budget while greedy usually does — the paper's regime
	// separation.
	rng := rand.New(rand.NewSource(4))
	n, trials, budget := 24, 30, 40
	density := 0.15
	blindWins, greedyWins := 0, 0
	for i := 0; i < trials; i++ {
		d := defect.Random(n, n, defect.UniformCrosspoint(density), rng)
		app := RandomApp(8, 8, 0.5, rng)
		ch := NewChip(d)
		if mp, _ := (Blind{}).Map(ch, app, budget, rng); mp != nil {
			blindWins++
		}
		if mp, _ := (Greedy{}).Map(ch, app, budget, rng); mp != nil {
			greedyWins++
		}
	}
	if greedyWins <= blindWins {
		t.Fatalf("greedy (%d/%d) should beat blind (%d/%d) at density %.2f",
			greedyWins, trials, blindWins, trials, density)
	}
}

func TestBlindCheaperAtLowDensity(t *testing.T) {
	// At very low density blind needs no diagnosis sessions, so its
	// cost with expensive BISD should be no worse than greedy's.
	rng := rand.New(rand.NewSource(5))
	n, trials := 24, 40
	diagCost := 10.0
	var blindCost, greedyCost float64
	for i := 0; i < trials; i++ {
		d := defect.Random(n, n, defect.UniformCrosspoint(0.002), rng)
		app := RandomApp(6, 6, 0.5, rng)
		ch := NewChip(d)
		_, st := (Blind{}).Map(ch, app, 1000, rng)
		blindCost += st.Cost(diagCost)
		_, st = (Greedy{}).Map(ch, app, 1000, rng)
		greedyCost += st.Cost(diagCost)
	}
	if blindCost > greedyCost*1.5 {
		t.Fatalf("blind cost %.1f should be competitive at low density (greedy %.1f)",
			blindCost, greedyCost)
	}
}

func TestHybridTracksBest(t *testing.T) {
	// Hybrid must succeed wherever greedy succeeds (it falls back).
	rng := rand.New(rand.NewSource(6))
	n, trials, budget := 24, 25, 200
	for _, density := range []float64{0.001, 0.05} {
		greedyOK, hybridOK := 0, 0
		for i := 0; i < trials; i++ {
			d := defect.Random(n, n, defect.UniformCrosspoint(density), rng)
			app := RandomApp(5, 5, 0.5, rng)
			ch := NewChip(d)
			if mp, _ := (Greedy{}).Map(ch, app, budget, rng); mp != nil {
				greedyOK++
			}
			if mp, _ := (Hybrid{BlindBudget: 4}).Map(ch, app, budget, rng); mp != nil {
				hybridOK++
			}
		}
		if hybridOK < greedyOK-3 {
			t.Fatalf("density %.3f: hybrid %d/%d far below greedy %d/%d",
				density, hybridOK, trials, greedyOK, trials)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	st := Stats{BISTCalls: 10, BISDCalls: 3}
	if st.Cost(5) != 10+15 {
		t.Fatalf("cost = %v", st.Cost(5))
	}
}

func TestImpossibleAppFails(t *testing.T) {
	// All crosspoints stuck open: nothing that closes a switch can map.
	n := 5
	d := defect.NewMap(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			d.Set(r, c, defect.StuckOpen)
		}
	}
	ch := NewChip(d)
	app := NewApp([][]bool{{true}})
	rng := rand.New(rand.NewSource(7))
	for _, m := range []Mapper{Blind{}, Greedy{}, Hybrid{}} {
		if mp, st := m.Map(ch, app, 50, rng); mp != nil || st.Success {
			t.Fatalf("%s claimed success on an unusable chip", m.Name())
		}
	}
}

func TestAppValidation(t *testing.T) {
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewApp(nil) })
	mustPanic(func() { NewApp([][]bool{{true}, {true, false}}) })
	mustPanic(func() { NewChip(defect.NewMap(2, 3)) })
	mustPanic(func() {
		rng := rand.New(rand.NewSource(8))
		app := RandomApp(9, 9, 0.5, rng)
		Blind{}.Map(cleanChip(4), app, 1, rng)
	})
}

func TestMapperNames(t *testing.T) {
	if (Blind{}).Name() != "blind" || (Greedy{}).Name() != "greedy" {
		t.Fatal("names")
	}
	if (Hybrid{BlindBudget: 7}).Name() != "hybrid(7)" {
		t.Fatal("hybrid name")
	}
}

// allStuckOpen returns an n×n chip whose every crosspoint is stuck
// open: every configuration that closes a switch fails.
func allStuckOpen(n int) *Chip {
	d := defect.NewMap(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			d.Set(r, c, defect.StuckOpen)
		}
	}
	return NewChip(d)
}

// TestOneBISTPerConfiguration checks every scheme runs exactly one BIST
// session per configuration it programs — Hybrid included, which enters
// repair at the diagnosis its last blind session left rather than
// testing that configuration again.
func TestOneBISTPerConfiguration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	app := RandomApp(4, 4, 0.5, rng)
	for _, m := range []Mapper{Blind{}, Greedy{}, Hybrid{}} {
		_, st := m.Map(allStuckOpen(16), app, 10, rng)
		if st.Success || st.Configs != 10 || st.BISTCalls != 10 {
			t.Fatalf("%s on an all-stuck-open chip at 10 attempts: %+v, want 10 configurations and 10 BIST sessions", m.Name(), st)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 6 + rng.Intn(40)
		p := defect.Params{
			PStuckOpen: rng.Float64() * 0.2, PStuckClosed: rng.Float64() * 0.05,
			PRowBreak: rng.Float64() * 0.05, PColBreak: rng.Float64() * 0.05,
			PRowBridge: rng.Float64() * 0.05, PColBridge: rng.Float64() * 0.05,
		}
		ch := NewChip(defect.Random(n, n, p, rng))
		app := RandomApp(1+rng.Intn(n/2), 1+rng.Intn(n/2), 0.5, rng)
		for _, m := range []Mapper{Blind{}, Greedy{}, Hybrid{}, Hybrid{BlindBudget: 1}} {
			budget := 1 + rng.Intn(30)
			_, st := m.Map(ch, app, budget, rng)
			if st.BISTCalls != st.Configs || st.Configs > budget {
				t.Fatalf("trial %d: %s at %d attempts: %+v", trial, m.Name(), budget, st)
			}
		}
	}
}

// requireLiveMasks fails unless the scratch's live masks equal a
// from-scratch rebuild for mapping m: the selected lines, and each
// logical row's used crosspoints scattered into physical columns.
func requireLiveMasks(t *testing.T, step string, app *App, m *Mapping, scr *scratch) {
	t.Helper()
	if scr.stale {
		t.Fatalf("%s: masks marked stale", step)
	}
	w := scr.w
	row, col, up := make([]uint64, w), make([]uint64, w), make([]uint64, app.R*w)
	for i, pr := range m.Rows {
		setBitOf(row, pr)
		for j, pc := range m.Cols {
			if app.Used[i][j] {
				setBitOf(up[i*w:], pc)
			}
		}
	}
	for _, pc := range m.Cols {
		setBitOf(col, pc)
	}
	for k := 0; k < w; k++ {
		if scr.selRow[k] != row[k] || scr.selCol[k] != col[k] {
			t.Fatalf("%s: selection word %d rows %#x cols %#x, rebuilt %#x %#x", step, k, scr.selRow[k], scr.selCol[k], row[k], col[k])
		}
	}
	for k := range up {
		if scr.usedPhys[k] != up[k] {
			t.Fatalf("%s: logical row %d word %d used %#x, rebuilt %#x", step, k/w, k%w, scr.usedPhys[k], up[k])
		}
	}
}

// TestLiveMasksTrackMapping drives blind, greedy and hybrid sessions
// step by step on random chips with every defect kind, at sizes whose
// masks fill one word but for one line, or span one, two and three
// words, and holds the live masks to a from-scratch rebuild: after
// randomMapping they must be marked stale, after every BIST session and
// every replaceBad they must describe the working mapping exactly.
func TestLiveMasksTrackMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := defect.Params{PStuckOpen: 0.06, PStuckClosed: 0.03, PRowBreak: 0.02, PColBreak: 0.02,
		PRowBridge: 0.02, PColBridge: 0.02}
	schemes := []struct {
		name  string
		blind int // configurations drawn at random before repairing
	}{{"blind", 1 << 30}, {"greedy", 1}, {"hybrid", 4}}
	moves := 0
	for _, n := range []int{16, 63, 70, 130} {
		for trial := 0; trial < 25; trial++ {
			ch := NewChip(defect.Random(n, n, p, rng))
			app := RandomApp(1+rng.Intn(n*3/4), 1+rng.Intn(n*3/4), 0.5, rng)
			for _, sc := range schemes {
				scr := getScratch(n, app.R)
				m := scr.mapping(app)
				for cfg := 0; cfg < 40; cfg++ {
					step := fmt.Sprintf("n=%d trial %d %s configuration %d", n, trial, sc.name, cfg)
					if cfg < sc.blind || !replaceBad(app, m, scr, rng) {
						scr.randomMapping(n, app, rng, m)
						if !scr.stale {
							t.Fatalf("%s: randomMapping left the masks live", step)
						}
					} else {
						requireLiveMasks(t, step+" after replaceBad", app, m, scr)
						moves++
					}
					ok := ch.check(app, m, scr)
					requireLiveMasks(t, step+" after check", app, m, scr)
					if ok {
						break
					}
				}
				putScratch(scr)
			}
		}
	}
	if moves < 100 {
		t.Fatalf("only %d repairs exercised", moves)
	}
}

// TestReplaceBadUsesEverySpare checks the spare accounting when the
// diagnosis names more lines than the chip has spares: on each axis the
// first diagnosed lines take every spare, each exactly once, and the
// rest stay put, with the live masks in step.
func TestReplaceBadUsesEverySpare(t *testing.T) {
	const n = 8
	app := RandomApp(6, 6, 0.5, rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []bool{true, false} {
		d := defect.NewMap(n, n)
		for p := 0; p < 3; p++ {
			if rows {
				d.SetRowBroken(p, true)
			} else {
				d.SetColBroken(p, true)
			}
		}
		ch := NewChip(d)
		for trial := 0; trial < 20; trial++ {
			scr := getScratch(n, app.R)
			m := scr.mapping(app)
			for i := range m.Rows {
				m.Rows[i], m.Cols[i] = i, i
			}
			if ch.check(app, m, scr) || !replaceBad(app, m, scr, rng) {
				t.Fatal("lines on broken wires must fail and move")
			}
			lines := m.Cols
			if rows {
				lines = m.Rows
			}
			// Logical lines 0–2 sit on broken wires and 6, 7 are the
			// only spares: 0 and 1 take them, 2 stays.
			if lines[0]+lines[1] != 13 || lines[0] == lines[1] || lines[2] != 2 {
				t.Fatalf("rows=%v: lines %v, want lines 0 and 1 on spares 6 and 7 and line 2 unmoved", rows, lines)
			}
			requireLiveMasks(t, fmt.Sprintf("rows=%v trial %d", rows, trial), app, m, scr)
			putScratch(scr)
		}
	}
}
