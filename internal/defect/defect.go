// Package defect models fabrication defects of reconfigurable
// nano-crossbar arrays: crosspoints stuck open or stuck closed, broken
// row/column nanowires, and bridges between adjacent wires. Random
// maps are seeded draws from the paper's defect model, independent
// uniform crosspoint defects, standing in for the post-fabrication test
// data the paper's flows consume (the repo has no physical chips; see
// DESIGN.md); wire faults reach a map only through its setters.
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

// Params are a random die's per-crosspoint stuck-open and stuck-closed
// probabilities. A random die has no wire faults; set those on a Map.
type Params struct {
	PStuckOpen   float64
	PStuckClosed float64
}

// UniformCrosspoint returns parameters with only crosspoint defects:
// the given total density split 80/20 between stuck-open and
// stuck-closed (open defects dominate in self-assembled crossbars).
func UniformCrosspoint(density float64) Params {
	return Params{PStuckOpen: density * 0.8, PStuckClosed: density * 0.2}
}

// skipSampler is the geometric-gap (skip) sampler over independent
// Bernoulli(p) indices, and the package's only one. The gap between
// consecutive successes, the number of failures before the next one, is
// a geometric deviate: the floor of an exponential one rescaled by the
// rate λ = -log1p(-p), since P(gap=k) = e^{-λk}(1-e^{-λ}) = (1-p)^k·p.
// The exponential comes from the ziggurat (ExpFloat64), which is table
// lookups on almost every draw — no math.Log on the hot path, unlike
// the textbook log(1-U)/log(1-p) inversion; invLambda is 1/λ. Every
// draw here (VisitBernoulli, the lane draw, the map fill) walks the
// indices that succeed as
//
//	for i := s.first(rng, n); i < limit; i = s.step(rng, i, n) { … }
//
// with its visit body inline, so no draw calls a closure per index.
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
	if g := rng.ExpFloat64() * s.invLambda; g < float64(n) {
		return int(g)
	}
	return n
}

// step returns the index after i, one that first or step returned, that
// next succeeds its draw, or n when no index of (i, n) does. It draws
// one gap (none when p ≥ 1), so a walk stopped at some limit resumes
// from the index it stopped at and the RNG state it left, and continues
// the stream one pass over [0, n) would have drawn. The gap is compared
// as a float, so a long one cannot overflow the index.
func (s skipSampler) step(rng *rand.Rand, i, n int) int {
	if s.p >= 1 {
		return i + 1
	}
	if g := rng.ExpFloat64() * s.invLambda; g < float64(n-1-i) {
		return i + 1 + int(g)
	}
	return n
}

// VisitBernoulli calls visit(i) for each i in [0,n) that succeeds an
// independent Bernoulli(p) draw, using geometric-gap (skip) sampling:
// the cost is O(p·n) random draws instead of n, the indices are visited
// in increasing order, and the visited set has exactly the independent
// per-index Bernoulli distribution. It is the sampler's entry for
// callers with a visit of their own, such as the transient-upset masks
// of internal/redundancy.
func VisitBernoulli(rng *rand.Rand, p float64, n int, visit func(i int)) {
	s := newSkipSampler(p)
	for i := s.first(rng, n); i < n; i = s.step(rng, i, n) {
		visit(i)
	}
}

// Random draws a defect map.
func Random(r, c int, p Params, rng *rand.Rand) *Map {
	m := NewMap(r, c)
	RandomInto(m, p, rng)
	return m
}

// rates returns the stuck-open and the total defect probability of a
// site, each capped at 1. The skip sampler visits sites at the total,
// and a visited site's draw u·total is stuck open below the first.
func (p Params) rates() (open, total float64) {
	open = minF(p.PStuckOpen, 1)
	return open, minF(open+minF(p.PStuckClosed, 1), 1)
}

// RandomInto redraws m in place from p — Random without the allocation,
// for per-worker die scratch. The crosspoint planes are filled by skip
// sampling over the R·C sites: defects arrive at geometric gaps under
// the total probability, and each arrival is split into stuck open or
// stuck closed, so a 64×64 die at 1% density costs ~40 random draws
// instead of 4096. The draw stream differs from one uniform draw per
// site (the scalar reference the property tests hold it to) —
// distributions match, exact maps for a given seed do not. It is,
// however, identical draw for draw with LanePlanes.DrawLane, and with a
// lane begun, extended and finished by FinishLane: the same seed yields
// the same die and the same end state through any of them, which is
// the contract the lane yield engine's demotion path rests on.
func RandomInto(m *Map, p Params, rng *rand.Rand) {
	m.Reset()
	_, pEnv := p.rates()
	s := newSkipSampler(pEnv)
	m.fill(nil, s, s.first(rng, m.R*m.C), p, rng)
}

// fill draws into m, which must be clear, a die whose stream has drawn
// the defects rec holds (site<<1 | 1 if stuck closed, as LaneCursor
// records them) and resumes at site i of s's walk: it replays rec, then
// draws the rest of the stream. Each defect is one OR into its plane
// word, at one unsigned division to split its site into row and column.
func (m *Map) fill(rec []uint32, s skipSampler, i int, p Params, rng *rand.Rand) {
	n, c, w := m.R*m.C, uint(m.C), m.w
	for _, e := range rec {
		site := uint(e >> 1)
		r := site / c
		col := site - r*c
		if e&1 == 0 {
			m.open[int(r)*w+int(col>>6)] |= 1 << (col & 63)
		} else {
			m.clsd[int(r)*w+int(col>>6)] |= 1 << (col & 63)
		}
	}
	po, pEnv := p.rates()
	for ; i < n; i = s.step(rng, i, n) {
		r := uint(i) / c
		col := uint(i) - r*c
		switch u := rng.Float64() * pEnv; {
		case u < po:
			m.open[int(r)*w+int(col>>6)] |= 1 << (col & 63)
		case u < pEnv:
			m.clsd[int(r)*w+int(col>>6)] |= 1 << (col & 63)
		}
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
