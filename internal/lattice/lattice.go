// Package lattice models four-terminal switch networks ("switching
// lattices") as introduced by Altun and Riedel and used throughout
// Section III-B of the DATE'17 paper.
//
// A lattice is an R×C grid of sites. Each site carries a literal (or a
// constant) controlling a four-terminal switch: when the literal
// evaluates to 1 all four terminals of the site are mutually connected,
// otherwise they are disconnected. The lattice computes
//
//   - its function f between the TOP and BOTTOM plates: f(a) = 1 iff a
//     4-connected path of conducting sites joins the top row to the
//     bottom row, and
//   - the dual function f^D between the LEFT and RIGHT plates: by planar
//     duality, f^D(a) = 1 iff an 8-connected path of conducting sites
//     joins the leftmost column to the rightmost column.
//
// The OR/AND composition rules of Altun–Riedel (padding column of 0s,
// padding row of 1s) are provided as structural operations; they are the
// building blocks of the P-circuit and D-reducible preprocessing.
package lattice

import (
	"fmt"
	"strings"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// SiteKind discriminates lattice site contents.
type SiteKind uint8

// Site kinds: a constant-0 (never conducting), constant-1 (always
// conducting), or literal-controlled switch.
const (
	Const0 SiteKind = iota
	Const1
	LiteralSite
)

// Site is one crosspoint of the lattice.
type Site struct {
	Kind SiteKind
	Var  int  // valid when Kind == LiteralSite
	Neg  bool // complemented literal
}

// Lit builds a literal site.
func Lit(v int, neg bool) Site { return Site{Kind: LiteralSite, Var: v, Neg: neg} }

// On reports whether the site conducts under assignment a.
func (s Site) On(a uint64) bool {
	switch s.Kind {
	case Const0:
		return false
	case Const1:
		return true
	default:
		v := a>>uint(s.Var)&1 == 1
		return v != s.Neg
	}
}

// String renders the site in paper notation ("0", "1", "x3", "x3'").
func (s Site) String() string {
	switch s.Kind {
	case Const0:
		return "0"
	case Const1:
		return "1"
	default:
		return cube.Lit{Var: s.Var, Neg: s.Neg}.String()
	}
}

// Lattice is an R×C four-terminal switching array.
type Lattice struct {
	R, C  int
	sites []Site // row-major
}

// New returns an R×C lattice of constant-0 sites.
func New(r, c int) *Lattice {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("lattice: invalid shape %d×%d", r, c))
	}
	return &Lattice{R: r, C: c, sites: make([]Site, r*c)}
}

// DeleteRow removes row r in place; the lattice keeps its storage.
func (l *Lattice) DeleteRow(r int) {
	if l.R < 2 || r < 0 || r >= l.R {
		panic(fmt.Sprintf("lattice: cannot delete row %d of %d×%d", r, l.R, l.C))
	}
	copy(l.sites[r*l.C:], l.sites[(r+1)*l.C:])
	l.R--
	l.sites = l.sites[:l.R*l.C]
}

// DeleteCol removes column c in place; the lattice keeps its storage.
func (l *Lattice) DeleteCol(c int) {
	if l.C < 2 || c < 0 || c >= l.C {
		panic(fmt.Sprintf("lattice: cannot delete column %d of %d×%d", c, l.R, l.C))
	}
	k := 0
	for i, s := range l.sites {
		if i%l.C != c {
			l.sites[k] = s
			k++
		}
	}
	l.C--
	l.sites = l.sites[:k]
}

// At returns the site at row r, column c (0-indexed, row 0 on top).
func (l *Lattice) At(r, c int) Site { return l.sites[r*l.C+c] }

// Set assigns the site at row r, column c.
func (l *Lattice) Set(r, c int, s Site) { l.sites[r*l.C+c] = s }

// Area returns R·C, the paper's cost measure for lattices.
func (l *Lattice) Area() int { return l.R * l.C }

// Clone returns an independent copy.
func (l *Lattice) Clone() *Lattice {
	c := New(l.R, l.C)
	copy(c.sites, l.sites)
	return c
}

// Eval computes the top-to-bottom function at assignment a using BFS
// over 4-connected conducting sites.
func (l *Lattice) Eval(a uint64) bool {
	on := make([]bool, len(l.sites))
	for i, s := range l.sites {
		on[i] = s.On(a)
	}
	// Seed with conducting top-row sites.
	queue := make([]int, 0, l.C)
	visited := make([]bool, len(l.sites))
	for c := 0; c < l.C; c++ {
		if on[c] {
			queue = append(queue, c)
			visited[c] = true
		}
	}
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		r, c := cur/l.C, cur%l.C
		if r == l.R-1 {
			return true
		}
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= l.R || nc < 0 || nc >= l.C {
				continue
			}
			ni := nr*l.C + nc
			if on[ni] && !visited[ni] {
				visited[ni] = true
				queue = append(queue, ni)
			}
		}
	}
	return false
}

// EvalDual computes the left-to-right dual reading: EvalDual(a) =
// ¬Eval(¬a) = f^D(a). By the planar (matching-lattice) duality of site
// percolation, a 4-connected top-bottom path of conducting sites exists
// exactly when no 8-connected left-right path of non-conducting sites
// does; evaluating the latter at the complemented assignment yields the
// dual. For literal sites "non-conducting under ¬a" coincides with
// "conducting under a"; Const1 sites never participate (dual of 1 is 0)
// and Const0 sites always do.
func (l *Lattice) EvalDual(a uint64) bool {
	on := make([]bool, len(l.sites))
	for i, s := range l.sites {
		on[i] = !s.On(^a)
	}
	queue := make([]int, 0, l.R)
	visited := make([]bool, len(l.sites))
	for r := 0; r < l.R; r++ {
		i := r * l.C
		if on[i] {
			queue = append(queue, i)
			visited[i] = true
		}
	}
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		r, c := cur/l.C, cur%l.C
		if c == l.C-1 {
			return true
		}
		for dr := -1; dr <= 1; dr++ {
			for dc := -1; dc <= 1; dc++ {
				if dr == 0 && dc == 0 {
					continue
				}
				nr, nc := r+dr, c+dc
				if nr < 0 || nr >= l.R || nc < 0 || nc >= l.C {
					continue
				}
				ni := nr*l.C + nc
				if on[ni] && !visited[ni] {
					visited[ni] = true
					queue = append(queue, ni)
				}
			}
		}
	}
	return false
}

// Function expands the top-to-bottom function over n variables.
func (l *Lattice) Function(n int) truthtab.TT {
	t := truthtab.New(n)
	for a := uint64(0); a < t.Size(); a++ {
		if l.Eval(a) {
			t.SetBit(a, true)
		}
	}
	return t
}

// DualFunction expands the left-to-right dual reading over n variables.
func (l *Lattice) DualFunction(n int) truthtab.TT {
	t := truthtab.New(n)
	for a := uint64(0); a < t.Size(); a++ {
		if l.EvalDual(a) {
			t.SetBit(a, true)
		}
	}
	return t
}

// Implements reports whether the lattice computes f top-to-bottom.
func (l *Lattice) Implements(f truthtab.TT) bool {
	return l.Function(f.NumVars()).Equal(f)
}

// MaxVar returns one past the highest variable index used (0 if none).
func (l *Lattice) MaxVar() int {
	n := 0
	for _, s := range l.sites {
		if s.Kind == LiteralSite && s.Var+1 > n {
			n = s.Var + 1
		}
	}
	return n
}

// Paths enumerates the products of the simple top-to-bottom paths, after
// absorption, as a cover. Enumeration stops with an error once more than
// limit simple paths have been visited (path counts grow exponentially
// with lattice size). The OR of the returned products is the lattice
// function.
func (l *Lattice) Paths(limit int) (cube.Cover, error) {
	var out cube.Cover
	seen := make(map[cube.Cube]bool)
	visited := make([]bool, len(l.sites))
	count := 0
	var dfs func(idx int, cur cube.Cube, ok bool) error
	dfs = func(idx int, cur cube.Cube, ok bool) error {
		if !ok {
			return nil
		}
		r, c := idx/l.C, idx%l.C
		if r == l.R-1 {
			count++
			if count > limit {
				return fmt.Errorf("lattice: more than %d simple paths", limit)
			}
			if !seen[cur] {
				seen[cur] = true
				out = append(out, cur)
			}
			// Paths may continue sideways along the bottom row, but any
			// extension only adds literals, so the shorter product
			// absorbs it. Stop here.
			return nil
		}
		visited[idx] = true
		defer func() { visited[idx] = false }()
		for _, d := range [4][2]int{{1, 0}, {0, -1}, {0, 1}, {-1, 0}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= l.R || nc < 0 || nc >= l.C {
				continue
			}
			ni := nr*l.C + nc
			if visited[ni] {
				continue
			}
			nxt, ok := extendProduct(cur, l.sites[ni])
			if !ok {
				continue
			}
			if err := dfs(ni, nxt, true); err != nil {
				return err
			}
		}
		return nil
	}
	for c := 0; c < l.C; c++ {
		cur, ok := extendProduct(cube.Universe, l.sites[c])
		if !ok {
			continue
		}
		if err := dfs(c, cur, true); err != nil {
			return nil, err
		}
	}
	return out.Absorb(), nil
}

// extendProduct conjoins a site's literal onto a path product. The
// second result is false when the path dies (Const0 or contradiction).
func extendProduct(c cube.Cube, s Site) (cube.Cube, bool) {
	switch s.Kind {
	case Const0:
		return cube.Cube{}, false
	case Const1:
		return c, true
	default:
		return c.Intersect(cube.FromLiteral(s.Var, s.Neg))
	}
}

// String renders the lattice as an aligned ASCII grid with TOP/BOTTOM
// plate markers, mirroring the paper's Fig. 4 drawing style.
func (l *Lattice) String() string {
	width := 1
	cells := make([]string, len(l.sites))
	for i, s := range l.sites {
		cells[i] = s.String()
		if len(cells[i]) > width {
			width = len(cells[i])
		}
	}
	var sb strings.Builder
	rowLen := l.C*(width+1) + 1
	sb.WriteString(center("TOP", rowLen) + "\n")
	for r := 0; r < l.R; r++ {
		for c := 0; c < l.C; c++ {
			fmt.Fprintf(&sb, " %-*s", width, cells[r*l.C+c])
		}
		sb.WriteString("\n")
	}
	sb.WriteString(center("BOTTOM", rowLen) + "\n")
	return sb.String()
}

func center(s string, w int) string {
	if len(s) >= w {
		return s
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s
}

// --- composition rules (Altun–Riedel) ---

// FromCube returns the k×1 column lattice computing a product of k
// literals (a 1×1 constant-1 lattice for the universe cube).
func FromCube(c cube.Cube) *Lattice {
	if c.IsContradiction() {
		l := New(1, 1)
		l.Set(0, 0, Site{Kind: Const0})
		return l
	}
	lits := c.Literals()
	if len(lits) == 0 {
		l := New(1, 1)
		l.Set(0, 0, Site{Kind: Const1})
		return l
	}
	l := New(len(lits), 1)
	for i, lit := range lits {
		l.Set(i, 0, Lit(lit.Var, lit.Neg))
	}
	return l
}

// Constant returns a 1×1 lattice computing the constant b.
func Constant(b bool) *Lattice {
	l := New(1, 1)
	if b {
		l.Set(0, 0, Site{Kind: Const1})
	}
	return l
}

// Or composes two lattices side by side with a separating column of 0s;
// the shorter operand is padded at the bottom with rows of 1s. The
// result computes f ∨ g.
func Or(a, b *Lattice) *Lattice {
	r := a.R
	if b.R > r {
		r = b.R
	}
	out := New(r, a.C+1+b.C)
	// Separator column stays Const0 (zero value).
	blit := func(dst *Lattice, src *Lattice, colOff int) {
		for i := 0; i < r; i++ {
			for j := 0; j < src.C; j++ {
				if i < src.R {
					dst.Set(i, colOff+j, src.At(i, j))
				} else {
					dst.Set(i, colOff+j, Site{Kind: Const1})
				}
			}
		}
	}
	blit(out, a, 0)
	blit(out, b, a.C+1)
	return out
}

// And composes two lattices stacked with a separating row of 1s; the
// narrower operand is padded at the right with columns of 0s. The result
// computes f ∧ g.
func And(a, b *Lattice) *Lattice {
	c := a.C
	if b.C > c {
		c = b.C
	}
	out := New(a.R+1+b.R, c)
	for j := 0; j < c; j++ {
		out.Set(a.R, j, Site{Kind: Const1})
	}
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			out.Set(i, j, a.At(i, j))
		}
	}
	for i := 0; i < b.R; i++ {
		for j := 0; j < b.C; j++ {
			out.Set(a.R+1+i, j, b.At(i, j))
		}
	}
	return out
}

// OrAll folds Or over one or more lattices.
func OrAll(ls ...*Lattice) *Lattice {
	if len(ls) == 0 {
		panic("lattice: OrAll of nothing")
	}
	out := ls[0]
	for _, l := range ls[1:] {
		out = Or(out, l)
	}
	return out
}

// AndAll folds And over one or more lattices.
func AndAll(ls ...*Lattice) *Lattice {
	if len(ls) == 0 {
		panic("lattice: AndAll of nothing")
	}
	out := ls[0]
	for _, l := range ls[1:] {
		out = And(out, l)
	}
	return out
}
