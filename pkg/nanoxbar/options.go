package nanoxbar

// Option configures one API call. Options compose left to right; zero
// options request the engine defaults (four-terminal lattice, greedy
// scheme, 100-die sweeps).
type Option func(*callConfig)

// callConfig is the resolved form of an option list: the wire request
// plus the client-side per-die observer.
type callConfig struct {
	req   Request
	onDie func(Die)
}

// BuildRequest resolves a kind, function spec, and option list into
// the wire Request plus the client-side per-die observer (nil when
// OnDie was not given). Both API implementations build their requests
// here, which is what keeps local and remote behavior identical.
func BuildRequest(kind Kind, f FunctionSpec, opts ...Option) (Request, func(Die)) {
	cc := callConfig{req: Request{Kind: kind, Function: f}}
	for _, opt := range opts {
		opt(&cc)
	}
	return cc.req, cc.onDie
}

// WithTech selects the target technology: "diode", "fet", or
// "lattice" (the default). Ignored by Compare.
func WithTech(tech string) Option {
	return func(cc *callConfig) { cc.req.Tech = tech }
}

// WithScheme selects the self-mapping scheme for Map/YieldSweep:
// "blind", "greedy" (default), or "hybrid".
func WithScheme(scheme string) Option {
	return func(cc *callConfig) { cc.req.Scheme = scheme }
}

// WithSeed makes the call reproducible: it seeds defect drawing and
// mapping randomness (die i of a sweep uses a deterministic sub-seed).
func WithSeed(seed int64) Option {
	return func(cc *callConfig) { cc.req.Seed = seed }
}

// WithDensity sets the crosspoint defect density for random chip draws
// (uniform, 80/20 stuck-open/stuck-closed). A density outside [0, 1],
// NaN included, answers bad_spec.
func WithDensity(density float64) Option {
	return func(cc *callConfig) { cc.req.Density = density }
}

// WithChipSize sets the side of the square chip for random draws
// (default: twice the implementation footprint).
func WithChipSize(n int) Option {
	return func(cc *callConfig) { cc.req.ChipSize = n }
}

// WithChip supplies an explicit defect map (Map only; sweeps draw
// random chips).
func WithChip(m DefectMapSpec) Option {
	return func(cc *callConfig) { cc.req.Chip = &m }
}

// WithMaxAttempts bounds the self-mapping configuration budget per
// chip (default 200).
func WithMaxAttempts(n int) Option {
	return func(cc *callConfig) { cc.req.MaxAttempts = n }
}

// WithChips sets the die count of a YieldSweep (default 100).
func WithChips(n int) Option {
	return func(cc *callConfig) { cc.req.Chips = n }
}

// OnDie installs a per-die observer for YieldSweep: fn fires once per
// die as workers finish them (completion order, serialized). Canceling
// the call's context from inside fn stops the sweep at the next die
// boundary — the idiom for "stop after enough evidence". Over HTTP the
// dies arrive as NDJSON stream events; the observer sees the same
// sequence either way.
func OnDie(fn func(Die)) Option {
	return func(cc *callConfig) { cc.onDie = fn }
}
