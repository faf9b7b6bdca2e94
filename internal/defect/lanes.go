package defect

import (
	"fmt"
	"math/rand"
)

// LanePlanes holds the crosspoint defects of up to 64 same-shape
// random dies in lane-word form: one uint64 per crosspoint site, with
// bit L belonging to die (lane) L. Where Map is site-bit/die-instance
// (words run along a row of one die), LanePlanes is the transpose —
// die-bit/site-instance — which is what lets the lane yield engine ask
// "which of these 64 dies fail this candidate mapping?" as a handful of
// word ORs instead of 64 separate map walks.
//
// Layout: open/clsd are R·C words, site-major — word r*C+c, bit L set
// iff die L's crosspoint (r,c) is stuck open / stuck closed.
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
}

// NewLanePlanes returns an all-healthy 64-die group of R×C planes.
func NewLanePlanes(r, c int) *LanePlanes {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("defect: invalid lane shape %d×%d", r, c))
	}
	return &LanePlanes{R: r, C: c, open: make([]uint64, r*c), clsd: make([]uint64, r*c)}
}

// Reset clears every lane of every plane, making the group reusable
// without reallocation (the lane runner's per-worker scratch).
func (lp *LanePlanes) Reset() {
	clearWords(lp.open)
	clearWords(lp.clsd)
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
	lp.BeginLane(&cur, p, rng)
	lp.ExtendLane(lane, &cur, p, rng, lp.R)
}

// LaneCursor is one lane's place in its die's defect stream, between
// BeginLane and the ExtendLane that finishes the die: the crosspoint
// sampler and the next site it visits (R·C once the die is final).
// With the RNG state the caller saved after its last call on the lane,
// it is all a resumed draw needs. A cursor is reusable across dies;
// BeginLane overwrites it.
type LaneCursor struct {
	sites skipSampler
	next  int
}

// BeginLane starts a resumable draw of a die from p into cur: it draws
// the first geometric gap, the head of the stream DrawLane consumes.
// The ExtendLane calls that continue it name the die's lane, which
// must be clear.
func (lp *LanePlanes) BeginLane(cur *LaneCursor, p Params, rng *rand.Rand) {
	_, pEnv := p.rates()
	cur.sites = newSkipSampler(pEnv)
	cur.next = cur.sites.first(rng, lp.R*lp.C)
}

// ExtendLane continues, with the same p, the draw BeginLane started on
// `lane`, through row `rows`: afterwards every crosspoint in rows
// [0, rows) holds its final bit. rng must resume where the lane's
// previous call left its source. Crosspoints come in site-major order,
// so extending through R finishes the die; extending through fewer
// rows than before is idempotent, and a die extended to R leaves rng
// exactly where DrawLane would.
func (lp *LanePlanes) ExtendLane(lane int, cur *LaneCursor, p Params, rng *rand.Rand, rows int) {
	bit := laneBit(lane)
	n := lp.R * lp.C
	limit := min(rows, lp.R) * lp.C
	if cur.next >= limit {
		return
	}
	po, pEnv := p.rates()
	open, clsd := lp.open, lp.clsd
	cur.next = cur.sites.walk(rng, cur.next, limit, n, func(i int) {
		switch u := rng.Float64() * pEnv; {
		case u < po:
			open[i] |= bit
		case u < pEnv:
			clsd[i] |= bit
		}
	})
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
