// Package defect models fabrication defects of reconfigurable
// nano-crossbar arrays: crosspoints stuck open or stuck closed, broken
// row/column nanowires, and bridges between adjacent wires. Defect maps
// are generated from seeded random distributions — uniform Bernoulli or
// clustered — standing in for the post-fabrication test data the paper's
// flows consume (the repo has no physical chips; see DESIGN.md).
//
// The map is stored as bitset word planes: one []uint64 plane per
// crosspoint defect kind (row-major, WordsPerRow words per row) plus one
// bitset per wire-fault class. The word planes are what makes the
// fault-tolerance hot paths bit-parallel — bism intersects them against
// selection masks 64 columns at a time, and redundancy's lifetime scan
// checks whole regions word-wise — while generation uses sparse
// geometric-gap sampling so a die costs O(defects) random draws instead
// of O(R·C).
package defect

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
)

// Kind classifies a crosspoint defect.
type Kind uint8

// Crosspoint defect kinds.
const (
	None Kind = iota
	StuckOpen
	StuckClosed
)

func (k Kind) String() string {
	switch k {
	case None:
		return "ok"
	case StuckOpen:
		return "stuck-open"
	case StuckClosed:
		return "stuck-closed"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Map is the defect state of an R×C crossbar, held as bitset word
// planes. A crosspoint (r,c) lives at bit c&63 of word r*WordsPerRow() +
// c>>6 of the per-kind planes; wire faults are one bit per line. Bits
// beyond C in the last word of each row (and beyond the line counts in
// the wire bitsets) are always zero — every mutator maintains that
// invariant, which is what lets the scan helpers (AnyDefect,
// CountCrosspointDefects, the bism mask intersections) operate on whole
// words without masking.
type Map struct {
	R, C int
	w    int      // words per crosspoint-plane row: ceil(C/64)
	open []uint64 // stuck-open plane, R*w words, row-major
	clsd []uint64 // stuck-closed plane, R*w words, row-major

	rowBroken []uint64 // bit r: row wire r broken (ceil(R/64) words)
	colBroken []uint64 // bit c: column wire c broken (ceil(C/64) words)
	rowBridge []uint64 // bit r: bridge between rows r and r+1 (bits 0..R-2)
	colBridge []uint64 // bit c: bridge between cols c and c+1 (bits 0..C-2)
}

// wordsFor returns ceil(n/64) with a one-word minimum.
func wordsFor(n int) int {
	if n < 1 {
		return 1
	}
	return (n + 63) >> 6
}

// NewMap returns a defect-free map.
func NewMap(r, c int) *Map {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("defect: invalid shape %d×%d", r, c))
	}
	w := wordsFor(c)
	return &Map{
		R: r, C: c, w: w,
		open: make([]uint64, r*w), clsd: make([]uint64, r*w),
		rowBroken: make([]uint64, wordsFor(r)), colBroken: make([]uint64, wordsFor(c)),
		rowBridge: make([]uint64, wordsFor(r)), colBridge: make([]uint64, wordsFor(c)),
	}
}

// Reset clears every defect, making the map reusable without
// reallocation (the engine's per-worker die scratch).
func (m *Map) Reset() {
	clearWords(m.open)
	clearWords(m.clsd)
	clearWords(m.rowBroken)
	clearWords(m.colBroken)
	clearWords(m.rowBridge)
	clearWords(m.colBridge)
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

func (m *Map) checkPoint(r, c int) {
	if r < 0 || r >= m.R || c < 0 || c >= m.C {
		panic(fmt.Sprintf("defect: crosspoint (%d,%d) outside %d×%d map", r, c, m.R, m.C))
	}
}

// At returns the crosspoint defect kind.
func (m *Map) At(r, c int) Kind {
	m.checkPoint(r, c)
	i, b := r*m.w+c>>6, uint(c&63)
	if m.open[i]>>b&1 == 1 {
		return StuckOpen
	}
	if m.clsd[i]>>b&1 == 1 {
		return StuckClosed
	}
	return None
}

// Set assigns a crosspoint defect kind.
func (m *Map) Set(r, c int, k Kind) {
	m.checkPoint(r, c)
	i, bit := r*m.w+c>>6, uint64(1)<<uint(c&63)
	m.open[i] &^= bit
	m.clsd[i] &^= bit
	switch k {
	case StuckOpen:
		m.open[i] |= bit
	case StuckClosed:
		m.clsd[i] |= bit
	}
}

func getBit(w []uint64, i int) bool { return w[i>>6]>>uint(i&63)&1 == 1 }
func setBit(w []uint64, i int, v bool) {
	if v {
		w[i>>6] |= 1 << uint(i&63)
	} else {
		w[i>>6] &^= 1 << uint(i&63)
	}
}

// RowBroken reports whether row wire r is broken.
func (m *Map) RowBroken(r int) bool { return getBit(m.rowBroken, r) }

// SetRowBroken marks row wire r broken (or repaired).
func (m *Map) SetRowBroken(r int, v bool) { setBit(m.rowBroken, r, v) }

// ColBroken reports whether column wire c is broken.
func (m *Map) ColBroken(c int) bool { return getBit(m.colBroken, c) }

// SetColBroken marks column wire c broken (or repaired).
func (m *Map) SetColBroken(c int, v bool) { setBit(m.colBroken, c, v) }

// RowBridge reports a bridge between row wires r and r+1.
func (m *Map) RowBridge(r int) bool { return getBit(m.rowBridge, r) }

// SetRowBridge marks a bridge between rows r and r+1.
func (m *Map) SetRowBridge(r int, v bool) {
	if r < 0 || r >= m.R-1 {
		panic(fmt.Sprintf("defect: row bridge %d outside [0,%d)", r, m.R-1))
	}
	setBit(m.rowBridge, r, v)
}

// ColBridge reports a bridge between column wires c and c+1.
func (m *Map) ColBridge(c int) bool { return getBit(m.colBridge, c) }

// SetColBridge marks a bridge between columns c and c+1.
func (m *Map) SetColBridge(c int, v bool) {
	if c < 0 || c >= m.C-1 {
		panic(fmt.Sprintf("defect: col bridge %d outside [0,%d)", c, m.C-1))
	}
	setBit(m.colBridge, c, v)
}

// OpenRow returns the stuck-open plane words of row r (bit c set iff
// crosspoint (r,c) is stuck open). The slice aliases the map: callers
// must treat it as read-only.
func (m *Map) OpenRow(r int) []uint64 { return m.open[r*m.w : (r+1)*m.w] }

// ClosedRow returns the stuck-closed plane words of row r. Read-only.
func (m *Map) ClosedRow(r int) []uint64 { return m.clsd[r*m.w : (r+1)*m.w] }

// RowBrokenWords returns the broken-row bitset (bit r = row r broken).
// Read-only.
func (m *Map) RowBrokenWords() []uint64 { return m.rowBroken }

// ColBrokenWords returns the broken-column bitset. Read-only.
func (m *Map) ColBrokenWords() []uint64 { return m.colBroken }

// RowBridgeWords returns the row-bridge bitset (bit r = bridge between
// rows r and r+1). Read-only.
func (m *Map) RowBridgeWords() []uint64 { return m.rowBridge }

// ColBridgeWords returns the column-bridge bitset. Read-only.
func (m *Map) ColBridgeWords() []uint64 { return m.colBridge }

// CountCrosspointDefects returns the number of defective crosspoints.
func (m *Map) CountCrosspointDefects() int {
	n := 0
	for _, w := range m.open {
		n += bits.OnesCount64(w)
	}
	for _, w := range m.clsd {
		n += bits.OnesCount64(w)
	}
	return n
}

// String renders the crosspoint map ('.', 'o' stuck-open, 'c' stuck-
// closed) with '!' margins marking broken wires.
func (m *Map) String() string {
	var sb strings.Builder
	for r := 0; r < m.R; r++ {
		if m.RowBroken(r) {
			sb.WriteByte('!')
		} else {
			sb.WriteByte(' ')
		}
		for c := 0; c < m.C; c++ {
			switch m.At(r, c) {
			case None:
				sb.WriteByte('.')
			case StuckOpen:
				sb.WriteByte('o')
			case StuckClosed:
				sb.WriteByte('c')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteByte(' ')
	for c := 0; c < m.C; c++ {
		if m.ColBroken(c) {
			sb.WriteByte('!')
		} else {
			sb.WriteByte(' ')
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Params control random defect generation. All probabilities are per
// resource (crosspoint or wire). When Clustered is set, defects
// additionally concentrate around ClusterCount random centers within
// ClusterRadius, multiplying the local crosspoint probability by
// ClusterBoost (capped at 1) — modeling the spatially correlated defect
// distributions the hybrid BISM targets.
type Params struct {
	PStuckOpen   float64
	PStuckClosed float64
	PRowBreak    float64
	PColBreak    float64
	PRowBridge   float64
	PColBridge   float64

	Clustered     bool
	ClusterCount  int
	ClusterRadius int
	ClusterBoost  float64
}

// UniformCrosspoint returns parameters with only crosspoint defects:
// the given total density split 80/20 between stuck-open and
// stuck-closed (open defects dominate in self-assembled crossbars).
func UniformCrosspoint(density float64) Params {
	return Params{PStuckOpen: density * 0.8, PStuckClosed: density * 0.2}
}

// geoGap returns the number of Bernoulli(p) failures before the next
// success — the gap between consecutive defects in skip sampling. A
// geometric deviate is the floor of an exponential one rescaled by the
// rate λ = -log1p(-p): P(gap=k) = e^{-λk}(1-e^{-λ}) = (1-p)^k·p. The
// exponential comes from the ziggurat (ExpFloat64), which is table
// lookups on almost every draw — no math.Log on the hot path, unlike
// the textbook log(1-U)/log(1-p) inversion. invLambda is 1/λ,
// precomputed by the caller since p is constant across a sweep.
func geoGap(rng *rand.Rand, invLambda float64) int {
	// ExpFloat64 ≥ 0 and invLambda > 0, so the product is ≥ 0. Large
	// gaps are capped so callers can add them to indices without
	// overflow.
	g := rng.ExpFloat64() * invLambda
	if g >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
}

// skipSampler is the geometric-gap (skip) sampler over independent
// Bernoulli(p) indices, and the package's only one: VisitBernoulli
// (and through it RandomInto) and the resumable lane draw all find
// their indices with first and walk.
type skipSampler struct{ p, invLambda float64 }

func newSkipSampler(p float64) skipSampler {
	s := skipSampler{p: p}
	if p > 0 && p < 1 { // the only case that draws gaps
		s.invLambda = -1 / math.Log1p(-p)
	}
	return s
}

// first returns the first index of [0, n) that succeeds its Bernoulli
// draw, or n when none does. It draws one gap when 0 < p < 1 and n > 0,
// and nothing otherwise.
func (s skipSampler) first(rng *rand.Rand, n int) int {
	switch {
	case s.p <= 0 || n <= 0:
		return n
	case s.p >= 1:
		return 0
	}
	return min(geoGap(rng, s.invLambda), n)
}

// walk calls visit on i, an index returned by first or walk, and on
// every later index that succeeds its draw, in increasing order, until
// it reaches one at or past limit. It returns that index without
// visiting it, or n when no index of [0, n) remains. Besides what visit
// draws, the walk draws one gap per visited index (none when p ≥ 1), so
// a walk stopped at limit resumes from the returned index and the RNG
// state it left, and continues the stream one pass over [0, n) would
// have drawn.
func (s skipSampler) walk(rng *rand.Rand, i, limit, n int, visit func(i int)) int {
	if s.p >= 1 {
		for ; i < limit; i++ {
			visit(i)
		}
		return i
	}
	for inv := s.invLambda; i < limit; {
		visit(i)
		g := geoGap(rng, inv)
		if i >= n-1-g { // i + 1 + g ≥ n, overflow-safe
			return n
		}
		i += 1 + g
	}
	return i
}

// VisitBernoulli calls visit(i) for each i in [0,n) that succeeds an
// independent Bernoulli(p) draw, using geometric-gap (skip) sampling:
// the cost is O(p·n) random draws instead of n, the indices are visited
// in increasing order, and the visited set has exactly the independent
// per-index Bernoulli distribution. This is the shared sparse sampler of
// the fault-tolerance paths: defect maps here, transient-upset masks in
// internal/redundancy.
func VisitBernoulli(rng *rand.Rand, p float64, n int, visit func(i int)) {
	s := newSkipSampler(p)
	s.walk(rng, s.first(rng, n), n, n, visit)
}

// Random draws a defect map.
func Random(r, c int, p Params, rng *rand.Rand) *Map {
	m := NewMap(r, c)
	RandomInto(m, p, rng)
	return m
}

// clusterPt is one cluster center of a clustered draw.
type clusterPt struct{ r, c int }

// appendClusters draws the cluster-center geometry into dst[:0] — the
// shared RNG prefix of every die draw, scalar map (RandomInto) and lane
// plane (LanePlanes.BeginLane) alike. Empty when the parameters are
// unclustered.
func appendClusters(dst []clusterPt, r, c int, p Params, rng *rand.Rand) []clusterPt {
	dst = dst[:0]
	if !p.Clustered || p.ClusterCount <= 0 {
		return dst
	}
	if cap(dst) < p.ClusterCount {
		dst = make([]clusterPt, 0, p.ClusterCount)
	}
	for i := 0; i < p.ClusterCount; i++ {
		dst = append(dst, clusterPt{rng.Intn(r), rng.Intn(c)})
	}
	return dst
}

// boostAt returns the local probability multiplier of site (ri,ci):
// ClusterBoost within ClusterRadius (Manhattan) of any center, 1
// elsewhere.
func boostAt(centers []clusterPt, p Params, ri, ci int) float64 {
	for _, ct := range centers {
		dr, dc := ri-ct.r, ci-ct.c
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		if dr+dc <= p.ClusterRadius {
			return p.ClusterBoost
		}
	}
	return 1
}

// envelopeP is the largest per-site total defect probability anywhere
// on the die — the skip sampler's envelope. Sites under the envelope
// are visited sparsely; each visit is thinned to the site's own
// (possibly boosted) stuck-open/stuck-closed split, preserving the
// scalar reference's marginals P(open)=min(pO·b,1),
// P(closed)=min(pO·b+pC·b,1)-min(pO·b,1).
func envelopeP(p Params) float64 {
	boostMax := 1.0
	if p.Clustered && p.ClusterCount > 0 && p.ClusterBoost > 1 {
		boostMax = p.ClusterBoost
	}
	pEnv := minF(p.PStuckOpen*boostMax, 1) + minF(p.PStuckClosed*boostMax, 1)
	if pEnv > 1 {
		pEnv = 1
	}
	return pEnv
}

// wireFaults reports whether p can break or bridge a wire. Wire planes
// come after every crosspoint in a die's stream, and every check reads
// them, so a lane with wire faults is drawn whole on first extension.
func (p *Params) wireFaults() bool {
	return p.PRowBreak > 0 || p.PColBreak > 0 || p.PRowBridge > 0 || p.PColBridge > 0
}

// RandomInto redraws m in place from p — Random without the allocation,
// for per-worker die scratch. The crosspoint planes are filled by skip
// sampling over the R·C sites: defects arrive at geometric gaps under an
// envelope probability, and (for clustered maps) each arrival is thinned
// to the local site probability, so a 64×64 die at 1% density costs ~40
// random draws instead of 4096. The draw stream differs from one
// uniform draw per site (the scalar reference the property tests hold
// it to) — distributions match, exact maps for a given seed do not. It
// is, however, identical draw for draw with LanePlanes.DrawLane: the
// same seed yields the same die through either path, which is the
// contract the lane yield engine's demotion path rests on.
func RandomInto(m *Map, p Params, rng *rand.Rand) {
	m.Reset()
	r, c := m.R, m.C
	centers := appendClusters(nil, r, c, p, rng)
	pEnv := envelopeP(p)
	VisitBernoulli(rng, pEnv, r*c, func(i int) {
		ri, ci := i/c, i%c
		b := 1.0
		if len(centers) > 0 {
			b = boostAt(centers, p, ri, ci)
		}
		po := minF(p.PStuckOpen*b, 1)
		pc := minF(p.PStuckClosed*b, 1)
		u := rng.Float64() * pEnv
		switch {
		case u < po:
			m.Set(ri, ci, StuckOpen)
		case u < minF(po+pc, 1):
			m.Set(ri, ci, StuckClosed)
		}
	})

	if !p.wireFaults() {
		return
	}
	VisitBernoulli(rng, p.PRowBreak, r, func(i int) { setBit(m.rowBroken, i, true) })
	VisitBernoulli(rng, p.PColBreak, c, func(i int) { setBit(m.colBroken, i, true) })
	VisitBernoulli(rng, p.PRowBridge, r-1, func(i int) { setBit(m.rowBridge, i, true) })
	VisitBernoulli(rng, p.PColBridge, c-1, func(i int) { setBit(m.colBridge, i, true) })
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
