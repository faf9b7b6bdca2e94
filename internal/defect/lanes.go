package defect

import (
	"fmt"
	"math/rand"
)

// LanePlanes holds the defect state of up to 64 same-shape dies in
// lane-word form: one uint64 per crosspoint site and per wire, with bit
// L belonging to die (lane) L. Where Map is site-bit/die-instance
// (words run along a row of one die), LanePlanes is the transpose —
// die-bit/site-instance — which is what lets the lane yield engine ask
// "which of these 64 dies fail this candidate mapping?" as a handful of
// word ORs instead of 64 separate map walks.
//
// Layout:
//
//   - open/clsd: R·C words, site-major — word r*C+c, bit L set iff die
//     L's crosspoint (r,c) is stuck open / stuck closed.
//   - rowBroken/colBroken: one word per line — word r bit L set iff die
//     L's row wire r is broken.
//   - rowBridge/colBridge: one word per adjacent line pair — word r bit
//     L set iff die L bridges rows r and r+1 (max(R-1,0) words).
//
// A group is filled by Reset followed by one DrawLane per die, or by
// one BeginLane per die and ExtendLane calls that draw each die only as
// far as its checks read; lanes (and rows) never drawn stay defect-free
// (all-zero), so callers must mask results to the lanes they actually
// drew.
type LanePlanes struct {
	R, C int
	open []uint64
	clsd []uint64

	rowBroken []uint64
	colBroken []uint64
	rowBridge []uint64
	colBridge []uint64
}

// NewLanePlanes returns an all-healthy 64-die group of R×C planes.
func NewLanePlanes(r, c int) *LanePlanes {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("defect: invalid lane shape %d×%d", r, c))
	}
	return &LanePlanes{
		R: r, C: c,
		open: make([]uint64, r*c), clsd: make([]uint64, r*c),
		rowBroken: make([]uint64, r), colBroken: make([]uint64, c),
		rowBridge: make([]uint64, maxI(r-1, 0)), colBridge: make([]uint64, maxI(c-1, 0)),
	}
}

// Reset clears every lane of every plane, making the group reusable
// without reallocation (the lane runner's per-worker scratch).
func (lp *LanePlanes) Reset() {
	clearWords(lp.open)
	clearWords(lp.clsd)
	clearWords(lp.rowBroken)
	clearWords(lp.colBroken)
	clearWords(lp.rowBridge)
	clearWords(lp.colBridge)
}

// DrawLane draws die `lane` into the group from p, using exactly the
// same random stream as RandomInto on a same-shape Map: seed a source
// identically and the lane's plane bits equal the map's, draw for draw
// and bit for bit, and the source ends in the same state. That
// equivalence (pinned by the property tests) is what lets the yield
// engine's demotion path reseed and redraw a scalar Map for a failing
// lane without any state hand-off. The lane must be clear (Reset, or
// never drawn since); DrawLane only ORs bits in. It is BeginLane
// followed by ExtendLane through the last row.
func (lp *LanePlanes) DrawLane(lane int, p Params, rng *rand.Rand) {
	var cur LaneCursor
	lp.BeginLane(lane, &cur, p, rng)
	lp.ExtendLane(lane, &cur, p, rng, lp.R)
}

// LaneCursor is one lane's place in its die's defect stream, between
// BeginLane and the ExtendLane that finishes the die: the crosspoint
// sampler, the next site it visits (R·C once the die is final) and the
// die's cluster centres. With the RNG state the caller saved after its
// last call on the lane, it is all a resumed draw needs. A cursor is
// reusable across dies; BeginLane overwrites it.
type LaneCursor struct {
	sites   skipSampler
	next    int
	centers []clusterPt
}

// BeginLane starts a resumable draw of die `lane` from p: it draws the
// cluster prefix and the first geometric gap, the head of the stream
// DrawLane consumes. The lane must be clear. A die whose first gap
// passes every crosspoint is finished here, wire planes included.
func (lp *LanePlanes) BeginLane(lane int, cur *LaneCursor, p Params, rng *rand.Rand) {
	bit := laneBit(lane)
	cur.centers = appendClusters(cur.centers, lp.R, lp.C, p, rng)
	n := lp.R * lp.C
	cur.sites = newSkipSampler(envelopeP(p))
	cur.next = cur.sites.first(rng, n)
	if cur.next == n {
		lp.drawWires(bit, p, rng)
	}
}

// ExtendLane continues, with the same p, the draw BeginLane started on
// `lane`, through row `rows`: afterwards every plane a footprint check inside rows
// [0, rows) reads holds its final bits. rng must resume where the
// lane's previous call left its source. Crosspoints come in site-major
// order, and the wire planes come after all R·C of them; every check
// reads the wire planes, so when p has any wire-fault probability the
// first extension draws the whole die. Extending through R (or through
// fewer rows than before) is idempotent once the die is final, and a
// die extended to R leaves rng exactly where DrawLane would.
func (lp *LanePlanes) ExtendLane(lane int, cur *LaneCursor, p Params, rng *rand.Rand, rows int) {
	bit := laneBit(lane)
	n := lp.R * lp.C
	limit := rows * lp.C
	if rows >= lp.R || p.wireFaults() {
		limit = n
	}
	if cur.next >= limit {
		return
	}
	pEnv := cur.sites.p
	open, clsd, c, centers := lp.open, lp.clsd, lp.C, cur.centers
	cur.next = cur.sites.walk(rng, cur.next, limit, n, func(i int) {
		b := 1.0
		if len(centers) > 0 {
			b = boostAt(centers, p, i/c, i%c)
		}
		po := minF(p.PStuckOpen*b, 1)
		pc := minF(p.PStuckClosed*b, 1)
		u := rng.Float64() * pEnv
		switch {
		case u < po:
			open[i] |= bit
		case u < minF(po+pc, 1):
			clsd[i] |= bit
		}
	})
	if cur.next == n {
		lp.drawWires(bit, p, rng)
	}
}

// drawWires draws the wire planes of the lane `bit` — the tail of a
// die's stream, empty when p has no wire faults.
func (lp *LanePlanes) drawWires(bit uint64, p Params, rng *rand.Rand) {
	if !p.wireFaults() {
		return
	}
	r, c := lp.R, lp.C
	VisitBernoulli(rng, p.PRowBreak, r, func(i int) { lp.rowBroken[i] |= bit })
	VisitBernoulli(rng, p.PColBreak, c, func(i int) { lp.colBroken[i] |= bit })
	VisitBernoulli(rng, p.PRowBridge, r-1, func(i int) { lp.rowBridge[i] |= bit })
	VisitBernoulli(rng, p.PColBridge, c-1, func(i int) { lp.colBridge[i] |= bit })
}

// laneBit returns the lane word bit of `lane`, rejecting lanes outside
// the word.
func laneBit(lane int) uint64 {
	if lane < 0 || lane > 63 {
		panic(fmt.Sprintf("defect: lane %d outside [0,64)", lane))
	}
	return uint64(1) << uint(lane)
}

// OpenWords returns the stuck-open plane, R·C site-major lane words
// (word r*C+c, bit L = die L). The slice aliases the group: read-only.
func (lp *LanePlanes) OpenWords() []uint64 { return lp.open }

// ClosedWords returns the stuck-closed plane. Read-only.
func (lp *LanePlanes) ClosedWords() []uint64 { return lp.clsd }

// RowBrokenWords returns the broken-row plane, one lane word per row.
// Read-only.
func (lp *LanePlanes) RowBrokenWords() []uint64 { return lp.rowBroken }

// ColBrokenWords returns the broken-column plane. Read-only.
func (lp *LanePlanes) ColBrokenWords() []uint64 { return lp.colBroken }

// RowBridgeWords returns the row-bridge plane, one lane word per
// adjacent row pair (word r = bridge between rows r and r+1).
// Read-only.
func (lp *LanePlanes) RowBridgeWords() []uint64 { return lp.rowBridge }

// ColBridgeWords returns the column-bridge plane. Read-only.
func (lp *LanePlanes) ColBridgeWords() []uint64 { return lp.colBridge }

// ExtractLane copies die `lane` out of the group into dst (same shape),
// overwriting it — the test-side bridge between the lane and scalar
// representations.
func (lp *LanePlanes) ExtractLane(dst *Map, lane int) {
	if dst.R != lp.R || dst.C != lp.C {
		panic(fmt.Sprintf("defect: extract %d×%d lane into %d×%d map", lp.R, lp.C, dst.R, dst.C))
	}
	bit := laneBit(lane)
	dst.Reset()
	for r := 0; r < lp.R; r++ {
		for c := 0; c < lp.C; c++ {
			switch i := r*lp.C + c; {
			case lp.open[i]&bit != 0:
				dst.Set(r, c, StuckOpen)
			case lp.clsd[i]&bit != 0:
				dst.Set(r, c, StuckClosed)
			}
		}
	}
	for r := 0; r < lp.R; r++ {
		dst.SetRowBroken(r, lp.rowBroken[r]&bit != 0)
	}
	for c := 0; c < lp.C; c++ {
		dst.SetColBroken(c, lp.colBroken[c]&bit != 0)
	}
	for r := 0; r+1 < lp.R; r++ {
		dst.SetRowBridge(r, lp.rowBridge[r]&bit != 0)
	}
	for c := 0; c+1 < lp.C; c++ {
		dst.SetColBridge(c, lp.colBridge[c]&bit != 0)
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
