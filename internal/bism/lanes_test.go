package bism

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/defect"
)

// blockMapping is the scalar form of CheckLanes's implicit candidate:
// logical line i on physical line off+i.
func blockMapping(app *App, rowOff, colOff int) *Mapping {
	m := &Mapping{Rows: make([]int, app.R), Cols: make([]int, app.C)}
	for i := range m.Rows {
		m.Rows[i] = rowOff + i
	}
	for j := range m.Cols {
		m.Cols[j] = colOff + j
	}
	return m
}

// TestCheckLanesMatchesScalarCheck pins the lane-word BIST session
// against the retained scalar check, lane by lane, across chip sizes
// that cross the 64-column word boundary of the scalar planes and
// across candidate offsets including the chip edges. Each lane draws
// from a source of its own, so defect.RandomInto on the same seed
// rebuilds it as a scalar map (DrawLane and RandomInto consume a source
// identically, defect's TestDrawLaneMatchesRandomInto).
func TestCheckLanesMatchesScalarCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	params := []defect.Params{
		defect.UniformCrosspoint(0.05),
		{},
		defect.UniformCrosspoint(1.0),
	}
	for _, n := range []int{8, 64, 70, 130} {
		for pi, p := range params {
			app := RandomApp(3, 5, 0.5, rng)
			lp := defect.NewLanePlanes(n, n)
			lp.Reset()
			scalars := make([]*defect.Map, 64)
			for lane := range scalars {
				seed := rng.Int63()
				lp.DrawLane(lane, p, rand.New(rand.NewSource(seed)))
				scalars[lane] = defect.NewMap(n, n)
				defect.RandomInto(scalars[lane], p, rand.New(rand.NewSource(seed)))
			}
			offsets := [][2]int{{0, 0}, {1, 2}, {n - app.R, n - app.C}}
			if n > 64 {
				// Straddle the scalar bitsets' word boundary.
				offsets = append(offsets, [2]int{62, 61})
			}
			for _, off := range offsets {
				failed := CheckLanes(app, lp, off[0], off[1], ^uint64(0))
				m := blockMapping(app, off[0], off[1])
				for lane, scalar := range scalars {
					want := !Validate(NewChip(scalar), app, m)
					got := failed>>uint(lane)&1 == 1
					if got != want {
						t.Fatalf("n=%d params[%d] off=%v lane %d: lane check fail=%v, scalar fail=%v",
							n, pi, off, lane, got, want)
					}
				}
			}
		}
	}
}

// TestCheckLanesEarlyExitIsSound checks the pending-mask contract: for
// any pending mask, every pending lane gets its true verdict even when
// the scan exits early.
func TestCheckLanesEarlyExitIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	app := RandomApp(4, 4, 0.6, rng)
	lp := defect.NewLanePlanes(16, 16)
	lp.Reset()
	for lane := 0; lane < 64; lane++ {
		lp.DrawLane(lane, defect.UniformCrosspoint(0.3), rng)
	}
	full := CheckLanes(app, lp, 0, 0, ^uint64(0))
	for trial := 0; trial < 50; trial++ {
		pending := rng.Uint64()
		got := CheckLanes(app, lp, 0, 0, pending)
		if got&pending != full&pending {
			t.Fatalf("pending %#x: verdicts %#x, want %#x (full %#x)",
				pending, got&pending, full&pending, full)
		}
	}
}
