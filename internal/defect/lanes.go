package defect

import (
	"fmt"
	"math"
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
// far as its checks read, after which FinishLane can complete any die
// as a scalar Map from its record; lanes (and rows) never drawn stay
// defect-free (all-zero), so callers must mask results to the lanes
// they actually drew.
type LanePlanes struct {
	R, C int
	open []uint64
	clsd []uint64
	// drawn bounds the sites any lane holds a bit at since Reset, and
	// sites is the last lane's sampler, reused while its rate holds (it
	// costs a logarithm to build).
	drawn int
	sites skipSampler
}

// NewLanePlanes returns an all-healthy 64-die group of R×C planes.
func NewLanePlanes(r, c int) *LanePlanes {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("defect: invalid lane shape %d×%d", r, c))
	}
	return &LanePlanes{R: r, C: c, open: make([]uint64, r*c), clsd: make([]uint64, r*c)}
}

// Reset clears every lane of every plane, making the group reusable
// without reallocation (the lane runner's per-worker scratch). Only the
// sites drawn since the last Reset can hold bits, so only they are
// cleared.
func (lp *LanePlanes) Reset() {
	clearWords(lp.open[:lp.drawn])
	clearWords(lp.clsd[:lp.drawn])
	lp.drawn = 0
}

// DrawLane draws die `lane` into the group from p, using exactly the
// same random stream as RandomInto on a same-shape Map: seed a source
// identically and the lane's plane bits equal the map's, draw for draw
// and bit for bit, and the source ends in the same state. That
// equivalence is pinned by the property tests. The lane must be clear
// (Reset, or never drawn since); DrawLane only ORs bits in. It is
// BeginLane, with no record, followed by ExtendLane through the last
// row, and allocates nothing.
func (lp *LanePlanes) DrawLane(lane int, p Params, rng *rand.Rand) {
	var cur LaneCursor
	lp.BeginLane(&cur, p, rng, nil)
	lp.ExtendLane(lane, &cur, p, rng, lp.R)
}

// LaneCursor is one lane's place in its die's defect stream, between
// BeginLane and the ExtendLane or FinishLane that finishes the die: the
// crosspoint sampler, the next site it visits (R·C once the die is
// final), and the record of the defects drawn so far. With the RNG
// state the caller saved after its last call on the lane, it is all a
// resumed draw needs. A cursor is reusable across dies; BeginLane
// overwrites it.
type LaneCursor struct {
	sites skipSampler
	next  int
	// rec lists the defects drawn so far, site<<1 | 1 if stuck closed,
	// in site order, within the capacity BeginLane was given; nil when
	// there is no record to finish from (none given, or it filled).
	rec []uint32
}

// MaxRecord caps a lane's defect record: a worker's 64 lanes then hold
// at most 64 × 4 096 four-byte entries, 1 MiB, at any chip size and
// density.
const MaxRecord = 4096

// RecordLen sizes the record of a lane that draws `sites` crosspoints
// under p before FinishLane finishes its die: the expected defect count
// there plus two standard deviations and two, capped at the site count
// and MaxRecord. A lane that outgrows its record costs a redraw of its
// die from the seed.
func RecordLen(p Params, sites int) int {
	_, q := p.rates()
	q = max(q, 0)
	mean := float64(sites) * q
	return int(min(mean+2*math.Sqrt(mean*(1-q))+2, float64(sites), MaxRecord))
}

// BeginLane starts a resumable draw of a die from p into cur: it draws
// the first geometric gap, the head of the stream DrawLane consumes.
// The ExtendLane calls that continue it name the die's lane, which
// must be clear. They record each defect they draw in rec, from its
// start up to its capacity, for FinishLane; a nil rec records nothing.
func (lp *LanePlanes) BeginLane(cur *LaneCursor, p Params, rng *rand.Rand, rec []uint32) {
	_, pEnv := p.rates()
	n := lp.R * lp.C
	if lp.sites.p != pEnv {
		lp.sites = newSkipSampler(pEnv)
	}
	cur.sites = lp.sites
	cur.next = cur.sites.first(rng, n)
	cur.rec = rec[:0]
	if uint64(n) > 1<<31 { // a site must fit its entry's 31 bits
		cur.rec = nil
	}
}

// ExtendLane continues, with the same p, the draw BeginLane started on
// `lane`, through row `rows`: afterwards every crosspoint in rows
// [0, rows) holds its final bit. rng must resume where the lane's
// previous call left its source. Crosspoints come in site-major order,
// so extending through R finishes the die; extending through fewer
// rows than before is idempotent, and a die extended to R leaves rng
// exactly where DrawLane would. A defect that finds the record full
// drops it: the die can then be finished only from its seed.
func (lp *LanePlanes) ExtendLane(lane int, cur *LaneCursor, p Params, rng *rand.Rand, rows int) {
	bit := laneBit(lane)
	n := lp.R * lp.C
	limit := min(rows, lp.R) * lp.C
	i := cur.next
	if i >= limit {
		return
	}
	lp.drawn = max(lp.drawn, limit)
	po, pEnv := p.rates()
	open, clsd, s, rec := lp.open, lp.clsd, cur.sites, cur.rec
	for ; i < limit; i = s.step(rng, i, n) {
		e := uint32(i) << 1
		switch u := rng.Float64() * pEnv; {
		case u < po:
			open[i] |= bit
		case u < pEnv:
			clsd[i] |= bit
			e |= 1
		default:
			continue
		}
		if len(rec) < cap(rec) {
			rec = append(rec, e)
		} else {
			rec = nil
		}
	}
	cur.next, cur.rec = i, rec
}

// FinishLane draws into m the die that cur's lane is drawing: the
// defects its record holds, then the rest of the die's stream from rng,
// which must resume where the lane's last call left its source. It
// leaves m and rng exactly as RandomInto leaves them from the die's
// seed, so no crosspoint of the die is drawn twice, and it writes
// nothing to the lane planes. It reports false, drawing nothing, when
// cur holds no record (begun without one, or the record filled); the
// caller then redraws the die from its seed. The cursor is spent.
func (lp *LanePlanes) FinishLane(m *Map, cur *LaneCursor, p Params, rng *rand.Rand) bool {
	if cur.rec == nil {
		return false
	}
	if m.R != lp.R || m.C != lp.C {
		panic(fmt.Sprintf("defect: finish a %d×%d lane into a %d×%d map", lp.R, lp.C, m.R, m.C))
	}
	m.Reset()
	m.fill(cur.rec, cur.sites, cur.next, p, rng)
	return true
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
