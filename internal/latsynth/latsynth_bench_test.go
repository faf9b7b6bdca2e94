package latsynth

import (
	"context"
	"math/rand"
	"testing"

	"nanoxbar/internal/truthtab"
)

func benchTT(n int, seed int64) truthtab.TT {
	rng := rand.New(rand.NewSource(seed))
	f := truthtab.New(n)
	for a := uint64(0); a < f.Size(); a++ {
		if rng.Intn(2) == 1 {
			f.SetBit(a, true)
		}
	}
	return f
}

// BenchmarkDualMethod6Var runs the full dual-method synthesis —
// covers, grid, verification, post-reduction — on a dense random
// 6-variable function. PostReduce deletion trials dominate, so this
// tracks the bit-parallel Implements path end to end.
func BenchmarkDualMethod6Var(b *testing.B) {
	f := benchTT(6, 9)
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		if _, err := DualMethod(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPostReduce6Var isolates the deletion pass on the unreduced
// dual-method grid.
func BenchmarkPostReduce6Var(b *testing.B) {
	f := benchTT(6, 9)
	opts := DefaultOptions()
	opts.PostReduce = false
	res, err := DualMethod(f, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PostReduce(res.Lattice, f)
	}
}

// BenchmarkOptimal3Var runs the bounded-optimal backtracking search,
// whose per-node feasibility prune is the bit-parallel FeasiblePartial.
func BenchmarkOptimal3Var(b *testing.B) {
	f := benchTT(3, 5)
	opts := DefaultOptimalOptions()
	for i := 0; i < b.N; i++ {
		if _, done := OptimalCtx(context.Background(), f, opts); !done {
			b.Fatal("optimal search did not complete")
		}
	}
}
