// Command latsynth synthesizes a four-terminal switching lattice for a
// Boolean function given as an expression or a single-output PLA file,
// using the public SDK (pkg/nanoxbar). Ctrl-C cancels a running
// exhaustive optimal search through the context.
//
// Usage:
//
//	latsynth -f "x1x2 + x1'x2'" [-method dual|pcircuit|dreduce|best|optimal] [-isop] [-paths]
//	latsynth -pla file.pla
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"nanoxbar/pkg/nanoxbar"
)

func main() {
	expr := flag.String("f", "", "Boolean expression, e.g. \"x1x2 + x1'x2'\"")
	plaPath := flag.String("pla", "", "single-output PLA file (espresso format)")
	method := flag.String("method", "best", "dual | pcircuit | dreduce | best | optimal")
	isopCovers := flag.Bool("isop", false, "use irredundant (ISOP) covers instead of exact minimization")
	showPaths := flag.Bool("paths", false, "print the lattice path products")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	f, n, err := loadFunction(*expr, *plaPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latsynth:", err)
		os.Exit(1)
	}
	opts := nanoxbar.DefaultSynthOptions()
	if *isopCovers {
		opts.Exact = false
	}

	var l *nanoxbar.Lattice
	var label string
	switch *method {
	case "dual":
		res, err := nanoxbar.DualMethod(f, opts)
		exitOn(err)
		l, label = res.Lattice, "dual method"
		fmt.Printf("f cover:  %v\nfD cover: %v\n", res.FCover, res.DualCover)
	case "pcircuit":
		res, err := nanoxbar.PCircuitBest(f, opts)
		exitOn(err)
		l, label = res.Lattice, fmt.Sprintf("P-circuit (split x%d, %v)", res.Var+1, res.Mode)
	case "dreduce":
		res, err := nanoxbar.DReduce(f, opts)
		exitOn(err)
		l, label = res.Lattice, "D-reducible decomposition"
		if res.Analysis != nil {
			fmt.Printf("affine hull: dim %d of %d\n", res.Analysis.Affine.Dim(), n)
		}
	case "best":
		l, label = bestOf(f, opts)
	case "optimal":
		got, done := nanoxbar.OptimalLattice(ctx, f, nanoxbar.DefaultOptimalOptions())
		if got == nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "latsynth: optimal search canceled")
			} else {
				fmt.Fprintf(os.Stderr, "latsynth: optimal search found nothing (completed=%v)\n", done)
			}
			os.Exit(1)
		}
		l, label = got, "exhaustive optimal search"
	default:
		fmt.Fprintf(os.Stderr, "latsynth: unknown method %q\n", *method)
		os.Exit(2)
	}

	fmt.Printf("method: %s\nsize:   %d×%d (area %d)\n", label, l.R, l.C, l.Area())
	fmt.Print(l)
	if !l.ImplementsFast(f) {
		fmt.Fprintln(os.Stderr, "latsynth: INTERNAL ERROR: lattice does not implement f")
		os.Exit(1)
	}
	fmt.Println("verified: lattice implements f on all assignments")
	if *showPaths {
		paths, err := l.Paths(1 << 16)
		if err != nil {
			fmt.Fprintln(os.Stderr, "latsynth: path enumeration:", err)
		} else {
			fmt.Printf("paths: %v\n", paths)
		}
	}
}

func bestOf(f nanoxbar.TruthTable, opts nanoxbar.SynthOptions) (*nanoxbar.Lattice, string) {
	res, err := nanoxbar.DualMethod(f, opts)
	exitOn(err)
	best, label := res.Lattice, "dual method"
	if p, err := nanoxbar.PCircuitBest(f, opts); err == nil && p.Area() < best.Area() {
		best, label = p.Lattice, fmt.Sprintf("P-circuit (split x%d)", p.Var+1)
	}
	if d, err := nanoxbar.DReduce(f, opts); err == nil && d.Area() < best.Area() {
		best, label = d.Lattice, "D-reducible decomposition"
	}
	return best, label
}

func loadFunction(expr, plaPath string) (nanoxbar.TruthTable, int, error) {
	switch {
	case expr != "" && plaPath != "":
		return nanoxbar.TruthTable{}, 0, fmt.Errorf("choose one of -f and -pla")
	case expr != "":
		return nanoxbar.ParseExpr(expr)
	case plaPath != "":
		text, err := os.ReadFile(plaPath)
		if err != nil {
			return nanoxbar.TruthTable{}, 0, err
		}
		p, err := nanoxbar.ParsePLA(string(text))
		if err != nil {
			return nanoxbar.TruthTable{}, 0, err
		}
		if p.Outputs != 1 {
			return nanoxbar.TruthTable{}, 0, fmt.Errorf("PLA has %d outputs; latsynth handles one", p.Outputs)
		}
		return p.Covers[0].ToTT(p.Inputs), p.Inputs, nil
	default:
		return nanoxbar.TruthTable{}, 0, fmt.Errorf("need -f or -pla (try -f \"x1x2 + x1'x2'\")")
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "latsynth:", err)
		os.Exit(1)
	}
}
