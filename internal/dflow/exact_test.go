package dflow

import (
	"math/bits"

	"nanoxbar/internal/defect"
)

// ExactMaxK returns the true maximum k of any universal k×k sub-crossbar
// by enumerating row subsets; usable for N ≤ ~14, it is the oracle
// Greedy is audited against. The second result is false when N exceeds
// maxN.
func ExactMaxK(m *defect.Map, maxN int) (int, bool) {
	if m.R > maxN || m.R > 20 || m.C > 64 {
		return 0, false
	}
	best := 0
	for sub := uint64(0); sub < uint64(1)<<uint(m.R); sub++ {
		nRows := bits.OnesCount64(sub)
		if nRows <= best {
			continue
		}
		ok := true
		for r := 0; r < m.R && ok; r++ {
			if sub>>uint(r)&1 == 0 {
				continue
			}
			if m.RowBroken(r) {
				ok = false
			}
			if r+1 < m.R && m.RowBridge(r) && sub>>uint(r+1)&1 == 1 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		// Columns clean against every selected row.
		clean := make([]bool, m.C)
		for c := 0; c < m.C; c++ {
			clean[c] = !m.ColBroken(c)
			for r := 0; r < m.R && clean[c]; r++ {
				if sub>>uint(r)&1 == 1 && m.At(r, c) != defect.None {
					clean[c] = false
				}
			}
		}
		// Maximum clean column subset avoiding bridged adjacent pairs:
		// maximum independent selection on a path, by DP. takePrev /
		// skipPrev are the best counts over columns 0..c with column c
		// selected / not selected.
		const negInf = -1 << 20
		takePrev, skipPrev := negInf, 0
		for c := 0; c < m.C; c++ {
			t := negInf
			if clean[c] {
				if c > 0 && m.ColBridge(c-1) {
					t = skipPrev + 1
				} else {
					t = max(takePrev, skipPrev) + 1
				}
			}
			takePrev, skipPrev = t, max(takePrev, skipPrev)
		}
		nCols := max(takePrev, skipPrev)
		if nCols < 0 {
			nCols = 0
		}
		k := nRows
		if nCols < k {
			k = nCols
		}
		if k > best {
			best = k
		}
	}
	return best, true
}
