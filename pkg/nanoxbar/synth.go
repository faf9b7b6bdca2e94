package nanoxbar

import (
	"context"

	"nanoxbar/internal/bexpr"
	"nanoxbar/internal/core"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/dreduce"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/pcircuit"
	"nanoxbar/internal/truthtab"
)

// Direct synthesis surface: the library layer beneath the serving API,
// re-exported for tools that need method-level control (which lattice
// synthesis algorithm ran, the covers it produced, the lattice grid
// itself) rather than cached service results.

// Boolean functions.
type (
	// TruthTable is a complete single-output Boolean function of up to
	// 24 variables.
	TruthTable = truthtab.TT
	// PLA is a parsed espresso-format PLA file.
	PLA = cube.PLA
)

// ParseExpr parses a Boolean expression ("x1x2 + x3'") into a truth
// table, also reporting the variable count.
func ParseExpr(expr string) (TruthTable, int, error) { return bexpr.ParseTT(expr) }

// ParsePLA parses an espresso-format PLA file.
func ParsePLA(text string) (*PLA, error) { return cube.ParsePLA(text) }

// Technologies.
type (
	// Technology selects the crosspoint device.
	Technology = core.Technology
	// Implementation is a synthesized crossbar realization.
	Implementation = core.Implementation
	// TechComparison reports the three technologies side by side.
	TechComparison = core.Comparison
	// Options configure the end-to-end synthesis pipeline.
	Options = core.Options
)

// Supported crossbar technologies.
const (
	Diode        = core.Diode
	FET          = core.FET
	FourTerminal = core.FourTerminal
)

// DefaultOptions enable everything the paper's flow uses (exact
// minimization, P-circuit and D-reducibility searches).
func DefaultOptions() Options { return core.DefaultOptions() }

// Synthesize implements f on the chosen technology, without caching
// (use Client.Synthesize for cached, pooled serving). Cancellation is
// checked between synthesis phases.
func Synthesize(ctx context.Context, f TruthTable, tech Technology, opts Options) (*Implementation, error) {
	return core.SynthesizeCtx(ctx, f, tech, opts)
}

// CompareTechnologies synthesizes f on all three technologies.
func CompareTechnologies(ctx context.Context, f TruthTable, opts Options) (*TechComparison, error) {
	return core.CompareTechnologiesCtx(ctx, f, opts)
}

// Four-terminal lattices.
type (
	// Lattice is a four-terminal switching lattice.
	Lattice = lattice.Lattice
	// Site is one lattice site (a literal or a constant).
	Site = lattice.Site
	// SynthOptions configure the lattice synthesis engines.
	SynthOptions = latsynth.Options
	// LatticeSynthesis is a dual-method synthesis result (lattice plus
	// the f/f-dual covers it was built from).
	LatticeSynthesis = latsynth.Result
	// PCircuitResult is a P-circuit decomposition result.
	PCircuitResult = pcircuit.Result
	// DReduceResult is a D-reducible decomposition result.
	DReduceResult = dreduce.Result
	// OptimalOptions bound the exhaustive optimal lattice search.
	OptimalOptions = latsynth.OptimalOptions
)

// NewLattice allocates an r×c lattice of constant-0 sites.
func NewLattice(r, c int) *Lattice { return lattice.New(r, c) }

// Lit is the lattice site carrying variable v (0-based), optionally
// negated.
func Lit(v int, neg bool) Site { return lattice.Lit(v, neg) }

// DefaultSynthOptions mirror the paper's lattice synthesis settings.
func DefaultSynthOptions() SynthOptions { return latsynth.DefaultOptions() }

// DualMethod runs the Altun–Riedel dual-method lattice synthesis.
func DualMethod(f TruthTable, opts SynthOptions) (*LatticeSynthesis, error) {
	return latsynth.DualMethod(f, opts)
}

// PCircuitBest searches all split variables for the best P-circuit
// decomposition (with intersection handling).
func PCircuitBest(f TruthTable, opts SynthOptions) (*PCircuitResult, error) {
	return pcircuit.Best(f, pcircuit.Options{Synth: opts, Mode: pcircuit.WithIntersection})
}

// DReduce synthesizes the D-reducible decomposition of f.
func DReduce(f TruthTable, opts SynthOptions) (*DReduceResult, error) {
	return dreduce.Synthesize(f, opts)
}

// DefaultOptimalOptions are tuned so functions of up to four support
// variables finish interactively.
func DefaultOptimalOptions() OptimalOptions { return latsynth.DefaultOptimalOptions() }

// OptimalLattice runs the exhaustive minimum-area lattice search. The
// boolean reports whether the search completed within budget (false
// also when ctx was canceled mid-search).
func OptimalLattice(ctx context.Context, f TruthTable, opts OptimalOptions) (*Lattice, bool) {
	return latsynth.OptimalCtx(ctx, f, opts)
}
