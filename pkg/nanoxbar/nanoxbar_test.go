package nanoxbar_test

import (
	"context"
	"math"
	"testing"
	"time"

	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
)

func TestBuildRequest(t *testing.T) {
	chip := nanoxbar.DefectMapSpec{Rows: []string{"o.", ".c"}}
	var gotDie nanoxbar.Die
	req, onDie := nanoxbar.BuildRequest(nanoxbar.KindYield, nanoxbar.Func("maj5"),
		nanoxbar.WithTech("fet"),
		nanoxbar.WithScheme("hybrid"),
		nanoxbar.WithSeed(99),
		nanoxbar.WithDensity(0.07),
		nanoxbar.WithChips(321),
		nanoxbar.WithChipSize(64),
		nanoxbar.WithMaxAttempts(555),
		nanoxbar.WithChip(chip),
		nanoxbar.OnDie(func(d nanoxbar.Die) { gotDie = d }),
	)
	if req.Kind != nanoxbar.KindYield || req.Function.Name != "maj5" {
		t.Fatalf("kind/function wrong: %+v", req)
	}
	if req.Tech != "fet" || req.Scheme != "hybrid" || req.Seed != 99 ||
		req.Density != 0.07 || req.Chips != 321 || req.ChipSize != 64 ||
		req.MaxAttempts != 555 || req.Chip == nil || req.Chip.Rows[0] != "o." {
		t.Fatalf("options not applied: %+v", req)
	}
	if onDie == nil {
		t.Fatal("OnDie observer lost")
	}
	onDie(nanoxbar.Die{Index: 5})
	if gotDie.Index != 5 {
		t.Fatal("observer not wired through")
	}
	// No options → plain request, nil observer.
	req, onDie = nanoxbar.BuildRequest(nanoxbar.KindSynthesize, nanoxbar.Expr("x1x2"))
	if req.Tech != "" || req.Options != nil || onDie != nil {
		t.Fatalf("defaults not empty: %+v", req)
	}
}

// TestDirectSynthesisSurface smoke-tests the non-service re-exports
// the CLIs and examples build on.
func TestDirectSynthesisSurface(t *testing.T) {
	f, n, err := nanoxbar.ParseExpr("x1x2 + x1'x2'")
	if err != nil || n != 2 {
		t.Fatalf("ParseExpr: n=%d err=%v", n, err)
	}
	im, err := nanoxbar.Synthesize(context.Background(), f, nanoxbar.FourTerminal, nanoxbar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if im.Area() == 0 || !im.Verify(f) {
		t.Fatalf("bad implementation %+v", im)
	}
	l, done := nanoxbar.OptimalLattice(context.Background(), f, nanoxbar.DefaultOptimalOptions())
	if !done || l == nil || l.Area() > im.Area()+1 {
		t.Fatalf("optimal search: done=%v l=%v", done, l)
	}
	// Hand-built lattice via the re-exported constructors.
	hand := nanoxbar.NewLattice(1, 1)
	hand.Set(0, 0, nanoxbar.Lit(0, false))
	one, _, _ := nanoxbar.ParseExpr("x1")
	if !hand.Implements(one) {
		t.Fatal("1×1 x1 lattice must implement x1")
	}
}

// TestWireErrorRetryAfterSaturates: a retry_after_ms too long for a
// Duration gives the longest hint instead of wrapping (9223372036855
// ms wraps to a negative Duration, which carries no hint at all).
func TestWireErrorRetryAfterSaturates(t *testing.T) {
	for ms, want := range map[int64]time.Duration{
		1500:           1500 * time.Millisecond,
		9223372036854:  9223372036854 * time.Millisecond,
		9223372036855:  math.MaxInt64,
		18446744073710: math.MaxInt64,
		math.MaxInt64:  math.MaxInt64,
	} {
		we := nanoxbar.WireError{Code: nanoxbar.CodeOverloaded, Message: "shed", RetryAfterMs: ms}
		if got := resilience.RetryAfter(we.Err()); got != want {
			t.Errorf("retry_after_ms %d: hint %v, want %v", ms, got, want)
		}
	}
}
