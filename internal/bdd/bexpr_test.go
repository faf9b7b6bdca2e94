package bdd

import (
	"testing"

	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/bexpr"
)

// fromExpr elaborates a parsed expression in m, node by node.
func fromExpr(m *Manager, e *bexpr.Expr) Ref {
	switch e.Op {
	case bexpr.OpConst:
		return m.Const(e.Val)
	case bexpr.OpVar:
		return m.Var(e.Var)
	case bexpr.OpNot:
		return m.Not(fromExpr(m, e.Left))
	case bexpr.OpAnd:
		return m.And(fromExpr(m, e.Left), fromExpr(m, e.Right))
	case bexpr.OpOr:
		return m.Or(fromExpr(m, e.Left), fromExpr(m, e.Right))
	case bexpr.OpXor:
		return m.Xor(fromExpr(m, e.Left), fromExpr(m, e.Right))
	}
	panic("bdd: unknown bexpr op")
}

func TestBDDElaborationMatchesTT(t *testing.T) {
	exprs := []string{
		"x1x2 + x1'x2'",
		"x1 ^ x2 ^ x3",
		"(x1 + x2)(x3 + x4')",
		"x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6",
	}
	for _, s := range exprs {
		e, err := bexpr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		n := e.MaxVar()
		m := New(n)
		tt, _ := e.TT(n)
		if !m.ToTT(fromExpr(m, e)).Equal(tt) {
			t.Fatalf("BDD and TT disagree for %q", s)
		}
	}
}

func TestEndToEndSuiteCrossCheckTTvsBDD(t *testing.T) {
	// Every benchmark function elaborated via both engines must agree
	// (guards the two independent function-representation substrates).
	for _, s := range benchfn.Suite() {
		if s.N() > 10 {
			continue
		}
		m := New(s.N())
		ref := m.FromTT(s.F)
		if !m.ToTT(ref).Equal(s.F) {
			t.Fatalf("%s: BDD round trip diverges", s.Name)
		}
		if m.SatCount(ref) != s.F.CountOnes() {
			t.Fatalf("%s: SatCount disagrees with popcount", s.Name)
		}
	}
}
