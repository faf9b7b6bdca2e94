// Package dflow implements the application-independent defect-tolerant
// flow of Section IV-C / Fig. 6 of the DATE'17 paper.
//
// Instead of re-running placement against each chip's huge defect map
// (the traditional defect-aware flow, Fig. 6a), the defect-unaware flow
// (Fig. 6b) extracts once per chip a universal defect-free k×k
// sub-crossbar from the defective N×N array. Every later design step
// works on a perfect k×k abstraction; the per-chip information shrinks
// from the O(N²) defect map to the O(N) line-selection descriptor.
//
// Extraction is the maximum balanced defect-free sub-crossbar problem
// (NP-hard in general); the package provides the classic greedy
// worst-line-removal heuristic, and its tests audit the heuristic's
// quality against an exact enumeration for small N.
package dflow

import (
	"fmt"
	"math/bits"

	"nanoxbar/internal/defect"
)

// Extraction is a selected defect-free sub-crossbar: K rows and K
// columns of the physical array, all of whose intersections are healthy,
// with no broken or mutually bridged selected lines.
type Extraction struct {
	Rows, Cols []int
}

// K returns the sub-crossbar dimension.
func (e *Extraction) K() int { return len(e.Rows) }

// DescriptorBits returns the storage the recovered-chip descriptor
// needs: one line index (⌈log2 N⌉ bits) per selected line — the O(N)
// defect map of the proposed flow.
func (e *Extraction) DescriptorBits(n int) int {
	idx := bits.Len(uint(n - 1))
	return (len(e.Rows) + len(e.Cols)) * idx
}

// RawMapBits returns the storage of the traditional full defect map:
// one bit per crosspoint plus line status.
func RawMapBits(n int) int { return n*n + 4*n }

// IsUniversal verifies that the selection is a defect-free sub-crossbar
// of the map: usable for any application, the defining property of the
// defect-unaware flow.
//
//xbarvet:ignore testonly: the root integration tests verify extractions with it
func IsUniversal(m *defect.Map, rows, cols []int) bool {
	selRow := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= m.R || m.RowBroken(r) || selRow[r] {
			return false
		}
		selRow[r] = true
	}
	selCol := make(map[int]bool, len(cols))
	for _, c := range cols {
		if c < 0 || c >= m.C || m.ColBroken(c) || selCol[c] {
			return false
		}
		selCol[c] = true
	}
	for _, r := range rows {
		for _, c := range cols {
			if m.At(r, c) != defect.None {
				return false
			}
		}
	}
	for r := 0; r+1 < m.R; r++ {
		if m.RowBridge(r) && selRow[r] && selRow[r+1] {
			return false
		}
	}
	for c := 0; c+1 < m.C; c++ {
		if m.ColBridge(c) && selCol[c] && selCol[c+1] {
			return false
		}
	}
	return true
}

// Greedy extracts a universal defect-free square sub-crossbar with the
// worst-line-removal heuristic: drop broken lines, resolve bridge
// conflicts toward the dirtier endpoint, then repeatedly remove the line
// with the most defective selected intersections, and finally trim to a
// square.
func Greedy(m *defect.Map) *Extraction {
	rowAlive := make([]bool, m.R)
	colAlive := make([]bool, m.C)
	for r := range rowAlive {
		rowAlive[r] = !m.RowBroken(r)
	}
	for c := range colAlive {
		colAlive[c] = !m.ColBroken(c)
	}
	defCount := func(isRow bool, i int) int {
		n := 0
		if isRow {
			for c := 0; c < m.C; c++ {
				if colAlive[c] && m.At(i, c) != defect.None {
					n++
				}
			}
		} else {
			for r := 0; r < m.R; r++ {
				if rowAlive[r] && m.At(r, i) != defect.None {
					n++
				}
			}
		}
		return n
	}
	// Bridge conflicts: drop the endpoint with more defects.
	for r := 0; r+1 < m.R; r++ {
		if m.RowBridge(r) && rowAlive[r] && rowAlive[r+1] {
			if defCount(true, r) >= defCount(true, r+1) {
				rowAlive[r] = false
			} else {
				rowAlive[r+1] = false
			}
		}
	}
	for c := 0; c+1 < m.C; c++ {
		if m.ColBridge(c) && colAlive[c] && colAlive[c+1] {
			if defCount(false, c) >= defCount(false, c+1) {
				colAlive[c] = false
			} else {
				colAlive[c+1] = false
			}
		}
	}
	aliveCount := func(alive []bool) int {
		n := 0
		for _, a := range alive {
			if a {
				n++
			}
		}
		return n
	}
	// Worst-line removal until every selected intersection is clean.
	// Ties prefer the side with more surviving lines, protecting the
	// eventual square dimension.
	for {
		nR, nC := aliveCount(rowAlive), aliveCount(colAlive)
		worst, worstCnt, worstRow := -1, 0, true
		consider := func(i, cnt int, isRow bool) {
			if cnt == 0 {
				return
			}
			take := false
			switch {
			case worst < 0 || cnt > worstCnt:
				take = true
			case cnt == worstCnt && isRow != worstRow:
				// Tie across axes: remove from the larger side to
				// protect the square dimension.
				take = (isRow && nR > nC) || (!isRow && nC > nR)
			}
			if take {
				worst, worstCnt, worstRow = i, cnt, isRow
			}
		}
		for r := 0; r < m.R; r++ {
			if rowAlive[r] {
				consider(r, defCount(true, r), true)
			}
		}
		for c := 0; c < m.C; c++ {
			if colAlive[c] {
				consider(c, defCount(false, c), false)
			}
		}
		if worst < 0 {
			break
		}
		if worstRow {
			rowAlive[worst] = false
		} else {
			colAlive[worst] = false
		}
	}
	// Add-back pass: lines removed early may be clean with respect to
	// the final (smaller) selection on the other axis; restore them.
	for changed := true; changed; {
		changed = false
		for r := 0; r < m.R; r++ {
			if rowAlive[r] || m.RowBroken(r) {
				continue
			}
			if r > 0 && m.RowBridge(r-1) && rowAlive[r-1] {
				continue
			}
			if r+1 < m.R && m.RowBridge(r) && rowAlive[r+1] {
				continue
			}
			if defCount(true, r) == 0 {
				rowAlive[r] = true
				changed = true
			}
		}
		for c := 0; c < m.C; c++ {
			if colAlive[c] || m.ColBroken(c) {
				continue
			}
			if c > 0 && m.ColBridge(c-1) && colAlive[c-1] {
				continue
			}
			if c+1 < m.C && m.ColBridge(c) && colAlive[c+1] {
				continue
			}
			if defCount(false, c) == 0 {
				colAlive[c] = true
				changed = true
			}
		}
	}
	var rows, cols []int
	for r, a := range rowAlive {
		if a {
			rows = append(rows, r)
		}
	}
	for c, a := range colAlive {
		if a {
			cols = append(cols, c)
		}
	}
	k := len(rows)
	if len(cols) < k {
		k = len(cols)
	}
	return &Extraction{Rows: rows[:k], Cols: cols[:k]}
}

// Costs parameterizes the abstract effort model of the two flows
// (arbitrary units; only ratios matter).
type Costs struct {
	TestPerCell    float64 // post-fabrication test+diagnosis, per crosspoint
	AwareMapPerUse float64 // defect-aware mapping effort per cell per (chip, app)
	ExtractPerCell float64 // one-time extraction effort per crosspoint
	FreeMapPerCell float64 // defect-free mapping effort per k×k cell per app
}

// DefaultCosts reflect that defect-aware mapping re-solves placement on
// the defective fabric for every chip, while defect-free mapping is a
// one-shot per application.
func DefaultCosts() Costs {
	return Costs{TestPerCell: 1, AwareMapPerUse: 2, ExtractPerCell: 0.5, FreeMapPerCell: 2}
}

// CompareFlows returns the total effort of the traditional defect-aware
// flow and the proposed defect-unaware flow for fabricating nChips chips
// each running nApps applications on an N×N array recovered to k×k.
func CompareFlows(n, k, nChips, nApps int, c Costs) (aware, unaware float64) {
	cells := float64(n * n)
	kcells := float64(k * k)
	// Fig. 6a: every chip is tested, then every (chip, app) pair runs
	// defect-aware physical design against that chip's defect map.
	aware = float64(nChips)*cells*c.TestPerCell +
		float64(nChips)*float64(nApps)*cells*c.AwareMapPerUse
	// Fig. 6b: every chip is tested and recovered once; each app is
	// mapped once onto the universal k×k abstraction and reused.
	unaware = float64(nChips)*cells*(c.TestPerCell+c.ExtractPerCell) +
		float64(nApps)*kcells*c.FreeMapPerCell
	return aware, unaware
}

// String renders an extraction compactly.
func (e *Extraction) String() string {
	return fmt.Sprintf("k=%d rows=%v cols=%v", e.K(), e.Rows, e.Cols)
}
