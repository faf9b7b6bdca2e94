// Package bdd is a test-only package: the reduced ordered binary
// decision diagram (ROBDD) manager below, with a hash-consed unique
// table and a memoized if-then-else operator, is the oracle the
// module's truth-table code is cross-checked against. It lives in
// _test.go files because no production path uses BDDs; the tests here
// pin the manager against truth tables, and bexpr_test.go checks bexpr's
// elaboration and the benchmark suite through it. The variable order is
// fixed to the natural order x0 < x1 < … (sufficient for the paper's
// function sizes).
package bdd

import (
	"fmt"
	"math/bits"

	"nanoxbar/internal/truthtab"
)

// Ref is a node reference. The terminals are False = 0 and True = 1.
type Ref int32

// Terminal references.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	v      int32 // variable index; terminals use a sentinel above all vars
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

// Manager owns the node store of one BDD universe.
type Manager struct {
	n      int
	nodes  []node
	unique map[node]Ref
	ite    map[iteKey]Ref
}

const termVar = int32(1 << 30)

// New creates a manager for functions over n variables.
func New(n int) *Manager {
	if n < 0 || n > 1<<20 {
		panic(fmt.Sprintf("bdd: bad variable count %d", n))
	}
	m := &Manager{
		n:      n,
		nodes:  []node{{v: termVar}, {v: termVar}},
		unique: make(map[node]Ref),
		ite:    make(map[iteKey]Ref),
	}
	return m
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.n }

// Size returns the number of live nodes including terminals.
func (m *Manager) Size() int { return len(m.nodes) }

// Const returns a terminal.
func (m *Manager) Const(b bool) Ref {
	if b {
		return True
	}
	return False
}

func (m *Manager) mk(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	k := node{v: v, lo: lo, hi: hi}
	if r, ok := m.unique[k]; ok {
		return r
	}
	m.nodes = append(m.nodes, k)
	r := Ref(len(m.nodes) - 1)
	m.unique[k] = r
	return r
}

// Var returns the function x_v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.n {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(int32(v), False, True)
}

// Literal returns x_v or its complement.
func (m *Manager) Literal(v int, neg bool) Ref {
	if neg {
		return m.Not(m.Var(v))
	}
	return m.Var(v)
}

func (m *Manager) topVar(f Ref) int32 { return m.nodes[f].v }

func (m *Manager) cofactors(f Ref, v int32) (lo, hi Ref) {
	nd := m.nodes[f]
	if nd.v != v {
		return f, f
	}
	return nd.lo, nd.hi
}

// ITE computes if-then-else(f, g, h) = f·g + f'·h.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal shortcuts.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	k := iteKey{f, g, h}
	if r, ok := m.ite[k]; ok {
		return r
	}
	v := m.topVar(f)
	if gv := m.topVar(g); gv < v {
		v = gv
	}
	if hv := m.topVar(h); hv < v {
		v = hv
	}
	f0, f1 := m.cofactors(f, v)
	g0, g1 := m.cofactors(g, v)
	h0, h1 := m.cofactors(h, v)
	r := m.mk(v, m.ITE(f0, g0, h0), m.ITE(f1, g1, h1))
	m.ite[k] = r
	return r
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Implies reports whether f ⇒ g.
func (m *Manager) Implies(f, g Ref) bool { return m.ITE(f, g, True) == True }

// Restrict returns f with variable v fixed to val.
func (m *Manager) Restrict(f Ref, v int, val bool) Ref {
	if m.topVar(f) > int32(v) {
		return f // f does not depend on v (ordering)
	}
	nd := m.nodes[f]
	if nd.v == int32(v) {
		if val {
			return nd.hi
		}
		return nd.lo
	}
	return m.mk(nd.v, m.Restrict(nd.lo, v, val), m.Restrict(nd.hi, v, val))
}

// Exists returns ∃x_v . f.
func (m *Manager) Exists(f Ref, v int) Ref {
	return m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// Eval evaluates f at an assignment (bit v = value of variable v).
func (m *Manager) Eval(f Ref, a uint64) bool {
	for f != True && f != False {
		nd := m.nodes[f]
		if a>>uint(nd.v)&1 == 1 {
			f = nd.hi
		} else {
			f = nd.lo
		}
	}
	return f == True
}

// FromTT builds the BDD of a truth table (must match the manager width).
func (m *Manager) FromTT(t truthtab.TT) Ref {
	if t.NumVars() != m.n {
		panic("bdd: truth table width mismatch")
	}
	memo := make(map[string]Ref)
	var build func(t truthtab.TT, v int) Ref
	build = func(t truthtab.TT, v int) Ref {
		if t.IsZero() {
			return False
		}
		if t.IsOne() {
			return True
		}
		key := t.String()
		if r, ok := memo[key]; ok {
			return r
		}
		for v < m.n && !t.DependsOn(v) {
			v++
		}
		r := m.mk(int32(v), build(t.Cofactor(v, false), v+1), build(t.Cofactor(v, true), v+1))
		memo[key] = r
		return r
	}
	return build(t, 0)
}

// ToTT expands f to a truth table (manager width must be ≤ truthtab.MaxVars).
func (m *Manager) ToTT(f Ref) truthtab.TT {
	t := truthtab.New(m.n)
	for a := uint64(0); a < t.Size(); a++ {
		if m.Eval(f, a) {
			t.SetBit(a, true)
		}
	}
	return t
}

// SatCount returns the number of satisfying assignments over all n
// variables.
func (m *Manager) SatCount(f Ref) uint64 {
	memo := make(map[Ref]uint64)
	var count func(f Ref) uint64 // assignments over vars >= topVar(f)
	count = func(f Ref) uint64 {
		if f == False {
			return 0
		}
		if f == True {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		nd := m.nodes[f]
		c := count(nd.lo)<<gap(m, f, nd.lo) + count(nd.hi)<<gap(m, f, nd.hi)
		memo[f] = c
		return c
	}
	top := m.topVar(f)
	if top > int32(m.n) {
		top = int32(m.n)
	}
	return count(f) << uint(top)
}

// gap returns the number of skipped variable levels between parent and
// child (each skipped level doubles the count).
func gap(m *Manager, parent, child Ref) uint {
	pv := m.topVar(parent)
	cv := m.topVar(child)
	if cv > int32(m.n) {
		cv = int32(m.n)
	}
	return uint(cv - pv - 1)
}

// Support returns the variables f depends on, ascending.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	varSet := uint64(0)
	var walk func(f Ref)
	walk = func(f Ref) {
		if f == True || f == False || seen[f] {
			return
		}
		seen[f] = true
		nd := m.nodes[f]
		varSet |= 1 << uint(nd.v)
		walk(nd.lo)
		walk(nd.hi)
	}
	walk(f)
	out := make([]int, 0, bits.OnesCount64(varSet))
	for v := 0; v < m.n && v < 64; v++ {
		if varSet>>uint(v)&1 == 1 {
			out = append(out, v)
		}
	}
	return out
}

// NodeCount returns the number of internal nodes reachable from f.
func (m *Manager) NodeCount(f Ref) int {
	seen := make(map[Ref]bool)
	var walk func(f Ref)
	walk = func(f Ref) {
		if f == True || f == False || seen[f] {
			return
		}
		seen[f] = true
		walk(m.nodes[f].lo)
		walk(m.nodes[f].hi)
	}
	walk(f)
	return len(seen)
}

// Dual returns the dual function f^D(x) = ¬f(¬x), computed by structural
// substitution (swap lo/hi children, then negate).
func (m *Manager) Dual(f Ref) Ref {
	memo := make(map[Ref]Ref)
	var flip func(f Ref) Ref // f with all variables complemented
	flip = func(f Ref) Ref {
		if f == True || f == False {
			return f
		}
		if r, ok := memo[f]; ok {
			return r
		}
		nd := m.nodes[f]
		r := m.mk(nd.v, flip(nd.hi), flip(nd.lo))
		memo[f] = r
		return r
	}
	return m.Not(flip(f))
}
