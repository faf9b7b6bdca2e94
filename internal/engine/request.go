// Request and Result are the typed units of work the engine executes.
// They are plain data with JSON tags, so the same structs travel
// in-process (SubmitStream) and over HTTP (cmd/xbarserverd) without
// translation layers.
package engine

import (
	"strconv"
	"strings"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/bexpr"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/truthtab"
)

// Kind selects the scenario a Request runs.
type Kind string

// Request kinds.
const (
	// KindSynthesize implements the function on one technology
	// (defect-free, shared across chips — the cacheable step).
	KindSynthesize Kind = "synthesize"
	// KindCompare synthesizes on all three technologies side by side.
	KindCompare Kind = "compare"
	// KindMap synthesizes (via the cache) and then places the result
	// on one defective chip with a self-mapping scheme.
	KindMap Kind = "map"
	// KindYield synthesizes once and maps onto Chips independently
	// drawn defective dies, aggregating recovery statistics.
	KindYield Kind = "yield"
)

// FunctionSpec names the target Boolean function in exactly one of
// three ways: a benchmark suite name, a Boolean expression, or a raw
// truth table in truthtab.Parse form ("3:0x96").
type FunctionSpec struct {
	Name string `json:"name,omitempty"` // benchfn suite name, e.g. "maj5"
	Expr string `json:"expr,omitempty"` // bexpr expression, e.g. "x1x2 + x3'"
	TT   string `json:"tt,omitempty"`   // truth table literal, e.g. "3:0x96"
}

// Resolve elaborates the spec into a truth table. It rejects an
// expression longer than 16 KiB and a function of more than 12
// variables, each before the work it would cost.
func (fs FunctionSpec) Resolve() (truthtab.TT, error) {
	set := 0
	for _, s := range []string{fs.Name, fs.Expr, fs.TT} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return truthtab.TT{}, apierr.BadSpec("engine: function spec must set exactly one of name/expr/tt, got %d", set)
	}
	switch {
	case fs.Name != "":
		spec, ok := benchfn.ByName(fs.Name)
		if !ok {
			return truthtab.TT{}, apierr.BadSpec("engine: unknown benchmark function %q", fs.Name)
		}
		return spec.F, nil
	case fs.Expr != "":
		if len(fs.Expr) > maxExprBytes {
			return truthtab.TT{}, apierr.BadSpec("engine: expression of %d bytes exceeds limit %d", len(fs.Expr), maxExprBytes)
		}
		e, err := bexpr.Parse(fs.Expr)
		if err != nil {
			return truthtab.TT{}, apierr.BadSpec("engine: %v", err)
		}
		n := e.MaxVar()
		if n > maxFunctionVars {
			return truthtab.TT{}, tooManyVars(n)
		}
		f, err := e.TT(n)
		if err != nil {
			return truthtab.TT{}, apierr.BadSpec("engine: %v", err)
		}
		return f, nil
	default:
		// The variable count leads the literal: check it before Parse
		// allocates a table of 2^n bits.
		prefix, _, _ := strings.Cut(fs.TT, ":")
		if n, err := strconv.Atoi(prefix); err == nil && n > maxFunctionVars {
			return truthtab.TT{}, tooManyVars(n)
		}
		f, err := truthtab.Parse(fs.TT)
		if err != nil {
			return truthtab.TT{}, apierr.BadSpec("engine: %v", err)
		}
		return f, nil
	}
}

func tooManyVars(n int) error {
	return apierr.BadSpec("engine: function of %d variables exceeds limit %d", n, maxFunctionVars)
}

// DefectMapSpec is the wire form of a defect.Map: crosspoints as one
// string per row ('.', 'o' stuck-open, 'c' stuck-closed), wire faults
// as index lists.
type DefectMapSpec struct {
	Rows       []string `json:"rows"`
	RowBroken  []int    `json:"row_broken,omitempty"`
	ColBroken  []int    `json:"col_broken,omitempty"`
	RowBridges []int    `json:"row_bridges,omitempty"` // bridge between r and r+1
	ColBridges []int    `json:"col_bridges,omitempty"`
}

// ToMap decodes the spec.
func (s DefectMapSpec) ToMap() (*defect.Map, error) {
	if len(s.Rows) == 0 || len(s.Rows[0]) == 0 {
		return nil, apierr.BadSpec("engine: empty defect map")
	}
	r, c := len(s.Rows), len(s.Rows[0])
	m := defect.NewMap(r, c)
	for ri, row := range s.Rows {
		if len(row) != c {
			return nil, apierr.BadSpec("engine: ragged defect map: row %d has %d columns, want %d", ri, len(row), c)
		}
		for ci := 0; ci < c; ci++ {
			switch row[ci] {
			case '.':
			case 'o':
				m.Set(ri, ci, defect.StuckOpen)
			case 'c':
				m.Set(ri, ci, defect.StuckClosed)
			default:
				return nil, apierr.BadSpec("engine: bad defect char %q at (%d,%d)", row[ci], ri, ci)
			}
		}
	}
	mark := func(n int, set func(int), idx []int, what string) error {
		for _, i := range idx {
			if i < 0 || i >= n {
				return apierr.BadSpec("engine: %s index %d out of range [0,%d)", what, i, n)
			}
			set(i)
		}
		return nil
	}
	if err := mark(r, func(i int) { m.SetRowBroken(i, true) }, s.RowBroken, "row_broken"); err != nil {
		return nil, err
	}
	if err := mark(c, func(i int) { m.SetColBroken(i, true) }, s.ColBroken, "col_broken"); err != nil {
		return nil, err
	}
	if err := mark(r-1, func(i int) { m.SetRowBridge(i, true) }, s.RowBridges, "row_bridges"); err != nil {
		return nil, err
	}
	if err := mark(c-1, func(i int) { m.SetColBridge(i, true) }, s.ColBridges, "col_bridges"); err != nil {
		return nil, err
	}
	return m, nil
}

// Request is one unit of work.
type Request struct {
	Kind     Kind         `json:"kind"`
	Function FunctionSpec `json:"function"`
	// Tech is the target technology ("diode", "fet", "lattice");
	// default lattice. Ignored by KindCompare.
	Tech string `json:"tech,omitempty"`
	// Options override core.DefaultOptions when non-nil. The struct is
	// part of the cache key, so distinct options never share results.
	Options *core.Options `json:"options,omitempty"`

	// Per-chip fields (KindMap, KindYield).

	// Scheme is the self-mapping scheme: "blind", "greedy" (default),
	// or "hybrid".
	Scheme string `json:"scheme,omitempty"`
	// MaxAttempts bounds the scheme's configuration budget (default 200).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Seed makes the request reproducible: it seeds the per-job RNG
	// used for defect drawing and mapping randomness.
	Seed int64 `json:"seed,omitempty"`
	// Chip supplies an explicit defect map (KindMap only). When nil, a
	// map is drawn from Density/ChipSize with the request seed.
	Chip *DefectMapSpec `json:"chip,omitempty"`
	// ChipSize is the side of the square chip for random draws;
	// default 2·max(app rows, app cols).
	ChipSize int `json:"chip_size,omitempty"`
	// Density is the crosspoint defect density for random draws
	// (uniform, 80/20 stuck-open/stuck-closed).
	Density float64 `json:"density,omitempty"`
	// Chips is the number of dies a KindYield request sweeps
	// (default 100). Die i uses a deterministic sub-seed of Seed.
	Chips int `json:"chips,omitempty"`
}

// SynthesisResult summarizes one synthesized implementation.
type SynthesisResult struct {
	Tech     string `json:"tech"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	Area     int    `json:"area"`
	Method   string `json:"method"`
	CacheHit bool   `json:"cache_hit"`
	Key      string `json:"key"` // canonical cache key (core.CacheKey)
}

// CompareResult reports all three technologies for one function.
type CompareResult struct {
	Diode   SynthesisResult `json:"diode"`
	FET     SynthesisResult `json:"fet"`
	Lattice SynthesisResult `json:"lattice"`
}

// MapResult is the outcome of placing an implementation on one chip.
type MapResult struct {
	Success   bool  `json:"success"`
	Configs   int   `json:"configs"`
	BISTCalls int   `json:"bist_calls"`
	BISDCalls int   `json:"bisd_calls"`
	ChipSize  int   `json:"chip_size"`
	Rows      []int `json:"rows,omitempty"` // physical row of each logical row
	Cols      []int `json:"cols,omitempty"`
}

// YieldResult aggregates recovery statistics over a batch of dies.
type YieldResult struct {
	Chips       int     `json:"chips"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate"`
	AvgConfigs  float64 `json:"avg_configs"`
	AvgBIST     float64 `json:"avg_bist"`
	AvgBISD     float64 `json:"avg_bisd"`
}

// Result is the outcome of one Request. Exactly one payload field is
// set on success; on failure Err carries the typed error (classified
// per internal/apierr, compare with errors.Is).
type Result struct {
	Kind      Kind             `json:"kind"`
	Synthesis *SynthesisResult `json:"synthesis,omitempty"`
	Compare   *CompareResult   `json:"compare,omitempty"`
	Map       *MapResult       `json:"map,omitempty"`
	Yield     *YieldResult     `json:"yield,omitempty"`

	// Degraded marks a result produced with the engine's fast-path
	// synthesis options after the request overran its queue-wait budget
	// (correct, but not area-optimal). Never set when the request
	// pinned explicit Options.
	Degraded bool `json:"degraded,omitempty"`

	// Err is the typed failure. It does not travel in a result frame:
	// over HTTP a failure is an error frame carrying its wire code,
	// from which remote callers rebuild it via apierr.FromCode.
	Err error `json:"-"`
}

// Ok reports whether the request succeeded.
func (r Result) Ok() bool { return r.Err == nil }

// TypedErr returns the typed failure of the result, Err; nil for
// successful results.
func (r Result) TypedErr() error { return r.Err }

// errResult wraps an error into a Result, classifying it into the
// apierr taxonomy.
func errResult(kind Kind, err error) Result {
	return Result{Kind: kind, Err: apierr.Classify(err)}
}

// parseScheme resolves the wire scheme name.
func parseScheme(s string) (bism.Mapper, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "greedy":
		return bism.Greedy{}, nil
	case "blind":
		return bism.Blind{}, nil
	case "hybrid":
		return bism.Hybrid{}, nil
	}
	return nil, apierr.BadSpec("engine: unknown mapping scheme %q (want blind|greedy|hybrid)", s)
}
