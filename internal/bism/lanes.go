package bism

import (
	"fmt"

	"nanoxbar/internal/defect"
)

// CheckLanes runs one application-dependent BIST session against all 64
// dies of a lane group at once, for the block-diagonal candidate
// mapping that places logical row i on physical row rowOff+i and
// logical column j on physical column colOff+j. It returns the lane
// mask of dies the candidate FAILS on; bit L clear means die L would
// pass a full scalar check of the same mapping.
//
// The session is the word-kernel dual of (*Chip).check: where the
// scalar check intersects one die's row-major column words against a
// selection mask, this intersects one site's die-major lane word — the
// per-row kernel used&open | (sel&^used)&closed evaluated across all
// lanes at once, one OR per crosspoint of the application footprint.
// A random die has no wire faults, so its footprint is the whole check.
// Violations are accumulated, not diagnosed: the lane path only needs
// pass/fail per die, and failing dies are demoted to the scalar mapper
// which re-derives the full BISD diagnosis from the die's own map.
//
// pending is the lane mask the caller still cares about (dies not yet
// placed by an earlier candidate); the scan stops early once every
// pending lane has failed. Lanes outside pending may or may not be
// reported failed — callers mask the result.
func CheckLanes(app *App, lp *defect.LanePlanes, rowOff, colOff int, pending uint64) uint64 {
	if rowOff < 0 || colOff < 0 || rowOff+app.R > lp.R || colOff+app.C > lp.C {
		panic(fmt.Sprintf("bism: %d×%d candidate at (%d,%d) outside %d×%d lane planes",
			app.R, app.C, rowOff, colOff, lp.R, lp.C))
	}
	// Crosspoints of the candidate footprint: a used switch fails lanes
	// whose site is stuck open, an unused intersection of selected
	// lines fails lanes whose site is stuck closed.
	open, clsd := lp.OpenWords(), lp.ClosedWords()
	failed := uint64(0)
	for i := 0; i < app.R; i++ {
		base := (rowOff+i)*lp.C + colOff
		for j, u := range app.Used[i] {
			if u {
				failed |= open[base+j]
			} else {
				failed |= clsd[base+j]
			}
		}
		if failed&pending == pending {
			return failed
		}
	}
	return failed
}
