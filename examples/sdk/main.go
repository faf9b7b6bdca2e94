// Sdk is the Go SDK walkthrough that README.md quotes verbatim: cached
// synthesis on a chosen technology, a streamed yield sweep, and the
// typed error taxonomy, through the in-process client.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"nanoxbar/pkg/nanoxbar"
)

func main() {
	cl := nanoxbar.NewClient(nanoxbar.ClientConfig{})
	defer cl.Close()
	// A request ID travels with every call: the HTTP client sends it as
	// X-Request-ID, and both clients' logs carry it.
	ctx := nanoxbar.ContextWithRequestID(context.Background(), "sdk-example")

	// Cached synthesis: equivalent functions share one cache entry.
	syn, err := cl.Synthesize(ctx, nanoxbar.Expr("x1x2 + x1'x2'"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lattice %d×%d via %s\n", syn.Rows, syn.Cols, syn.Method)
	dio, err := cl.Synthesize(ctx, nanoxbar.Expr("x1x2 + x1'x2'"), nanoxbar.WithTech("diode"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diode array %d×%d\n", dio.Rows, dio.Cols)

	// Yield sweep with per-die streaming; cancel mid-sweep by
	// canceling ctx from inside the OnDie observer.
	stats, err := cl.YieldSweep(ctx, nanoxbar.Func("maj5"),
		nanoxbar.WithChips(500), nanoxbar.WithDensity(0.05), nanoxbar.WithSeed(7),
		nanoxbar.OnDie(func(d nanoxbar.Die) { /* streams as dies finish */ }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("yield %.1f%%\n", 100*stats.SuccessRate)

	// Typed errors survive classification (and, with the HTTP client,
	// the wire round-trip): errors.Is matches the sentinel, and the
	// wire code says what to do about it.
	_, err = cl.Map(ctx, nanoxbar.Func("maj3"),
		nanoxbar.WithChip(nanoxbar.DefectMapSpec{Rows: []string{"..", ".."}}))
	if errors.Is(err, nanoxbar.ErrInfeasible) {
		fmt.Println("maj3 does not fit a 2×2 chip:", err, "→", advice(err))
	}
	_, err = cl.Synthesize(ctx, nanoxbar.Expr("x1 +"))
	if errors.Is(err, nanoxbar.ErrBadSpec) {
		fmt.Println("not an expression:", err, "→", advice(err))
	}
}

// advice maps a failure's wire code, the code a v2 error frame
// carries, onto what the caller should do next.
func advice(err error) string {
	switch nanoxbar.ErrorCode(err) {
	case nanoxbar.CodeBadSpec:
		return "fix the request"
	case nanoxbar.CodeInfeasible:
		return "use a larger chip"
	case nanoxbar.CodeOverloaded, nanoxbar.CodeUnavailable:
		return "retry after a back-off"
	default:
		return "report it"
	}
}
