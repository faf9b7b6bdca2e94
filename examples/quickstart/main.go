// Quickstart walks through the paper's running examples on the public
// SDK (pkg/nanoxbar): the two-level array sizes of Fig. 3 for
// f = x1x2 + x1'x2', the 2×2 four-terminal lattice of Fig. 5, and the
// hand-crafted 3×2 lattice of Fig. 4.
package main

import (
	"context"
	"fmt"
	"log"

	"nanoxbar/pkg/nanoxbar"
)

func main() {
	ctx := context.Background()

	// --- the §III running example, via the serving client ---
	cl := nanoxbar.NewClient(nanoxbar.ClientConfig{})
	defer cl.Close()
	cmp, err := cl.Compare(ctx, nanoxbar.Expr("x1x2 + x1'x2'"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("f = x1x2 + x1'x2'   (the paper's running example)")
	fmt.Printf("  diode array:   %d×%d  (paper: 2×5)\n", cmp.Diode.Rows, cmp.Diode.Cols)
	fmt.Printf("  FET array:     %d×%d  (paper: 4×4)\n", cmp.FET.Rows, cmp.FET.Cols)
	fmt.Printf("  4T lattice:    %d×%d  (paper: 2×2)\n\n", cmp.Lattice.Rows, cmp.Lattice.Cols)

	// The client returns sizes; the direct synthesis surface returns
	// the arrays themselves, each checked against f.
	f, _, err := nanoxbar.ParseExpr("x1x2 + x1'x2'")
	if err != nil {
		log.Fatal(err)
	}
	var li *nanoxbar.Implementation
	for _, tech := range []nanoxbar.Technology{nanoxbar.Diode, nanoxbar.FET, nanoxbar.FourTerminal} {
		if li, err = nanoxbar.Synthesize(ctx, f, tech, nanoxbar.DefaultOptions()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %d×%d, computes f: %v\n", tech, li.Rows, li.Cols, li.Verify(f))
	}
	fmt.Print(li.Lattice)
	// Read left to right, a four-terminal lattice computes the dual of
	// its top-to-bottom function: the property the dual method builds on.
	fmt.Printf("left to right it computes f's dual: %v\n\n", li.Lattice.DualFunction(2).Equal(f.Dual()))

	// --- the Fig. 4 lattice ---
	fig4, _, err := nanoxbar.ParseExpr("x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6")
	if err != nil {
		log.Fatal(err)
	}
	hand := nanoxbar.NewLattice(3, 2)
	for i := 0; i < 3; i++ {
		hand.Set(i, 0, nanoxbar.Lit(i, false))
		hand.Set(i, 1, nanoxbar.Lit(3+i, false))
	}
	fmt.Println("Fig. 4: hand-crafted 3×2 lattice")
	fmt.Print(hand)
	fmt.Printf("implements the caption SOP: %v\n", hand.Implements(fig4))
	paths, err := hand.Paths(10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-to-bottom path products: %v\n", paths)

	auto, err := nanoxbar.Synthesize(ctx, fig4, nanoxbar.FourTerminal, nanoxbar.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nautomatic synthesis of the same function: %d×%d via %s\n",
		auto.Rows, auto.Cols, auto.Method)
}
