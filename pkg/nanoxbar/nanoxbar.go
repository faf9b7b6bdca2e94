// Package nanoxbar is the public, context-aware SDK of the nanoxbar
// crossbar synthesis and fault-tolerance service — the DATE'17 flow
// ("Computing with Nano-Crossbar Arrays: Logic Synthesis and Fault
// Tolerance", Altun/Ciriani/Tahoori) packaged for programmatic use.
//
// Two interchangeable implementations satisfy the API interface:
//
//   - Client (this package): runs the engine in-process, sharing a
//     canonicalizing synthesis cache and a bounded worker pool.
//   - client.Client (pkg/nanoxbar/client): speaks the v2 streaming
//     HTTP protocol to a remote xbarserverd.
//
// Both return the same typed results, honor context cancellation down
// to the per-die loop of a yield sweep, and fail with the same error
// taxonomy (ErrBadSpec, ErrInfeasible, ErrCanceled — compare with
// errors.Is; the taxonomy survives the HTTP round-trip).
//
// Minimal use:
//
//	cl := nanoxbar.NewClient(nanoxbar.ClientConfig{})
//	defer cl.Close()
//	syn, err := cl.Synthesize(ctx, nanoxbar.Expr("x1x2 + x1'x2'"))
//
// Beyond the serving API, the package re-exports the library surface
// the command-line tools and examples build on: direct synthesis
// (Synthesize, DualMethod, OptimalLattice), fault-tolerance machinery
// (DetectionSuite, mappers, GreedyExtraction), and the arithmetic
// network layer (RippleAdder, SynthesizeSSM).
package nanoxbar

import (
	"context"
	"log/slog"
	"time"

	"nanoxbar/internal/engine"
)

// API is the context-first service interface shared by the in-process
// Client and the HTTP client (pkg/nanoxbar/client). All methods honor
// ctx cancellation: a canceled call returns an error satisfying
// errors.Is(err, ErrCanceled), and a yield sweep stops mapping further
// dies at the next die boundary.
type API interface {
	// Synthesize implements the function on one technology (default
	// four-terminal lattice; see WithTech).
	Synthesize(ctx context.Context, f FunctionSpec, opts ...Option) (*Synthesis, error)
	// Compare synthesizes the function on all three technologies.
	Compare(ctx context.Context, f FunctionSpec, opts ...Option) (*Comparison, error)
	// Map synthesizes (through the shared cache) and places the result
	// on one defective chip with a self-mapping scheme.
	Map(ctx context.Context, f FunctionSpec, opts ...Option) (*MapOutcome, error)
	// YieldSweep maps the function onto many independently drawn
	// defective dies and aggregates recovery statistics. OnDie streams
	// per-die outcomes as workers finish them.
	YieldSweep(ctx context.Context, f FunctionSpec, opts ...Option) (*YieldStats, error)
	// Close releases the client's resources.
	Close() error
}

// ClientConfig sizes the in-process engine behind a Client. Its
// synthesis cache holds 1024 entries and its job queue 4×Workers
// submissions.
type ClientConfig struct {
	// Workers is the worker pool size (default: number of CPUs).
	Workers int
	// MaxQueueWait is the admission budget: how long a submission may
	// wait for a queue slot before being shed with ErrOverloaded. Zero
	// blocks forever (the pre-admission-control behavior).
	MaxQueueWait time.Duration
	// Logger receives the engine's per-request debug logs (kind,
	// duration, outcome, request ID when the context carries one — see
	// ContextWithRequestID). Nil discards.
	Logger *slog.Logger
}

// Client is the in-process implementation of API: it embeds the
// serving engine — synthesis cache plus worker pool — directly in the
// calling process. It is safe for concurrent use.
type Client struct {
	eng *engine.Engine
}

var _ API = (*Client)(nil)

// NewClient starts an in-process client.
func NewClient(cfg ClientConfig) *Client {
	return &Client{eng: engine.New(engine.Config{
		Workers:      cfg.Workers,
		MaxQueueWait: cfg.MaxQueueWait,
		Logger:       cfg.Logger,
	})}
}

// Close stops the engine's worker pool after draining queued work. A
// call that reaches the pool after Close begins fails with
// ErrUnavailable, and a second Close does nothing.
func (c *Client) Close() error {
	c.eng.Close()
	return nil
}

// Stats snapshots the engine counters (cache hits/misses, request
// counts, lattice evaluation work).
func (c *Client) Stats() Stats { return c.eng.Stats() }

// do executes one typed request and converts the engine result into
// the (payload, error) shape of the public API.
func (c *Client) do(ctx context.Context, kind Kind, f FunctionSpec, opts []Option) (Result, error) {
	req, onDie := BuildRequest(kind, f, opts...)
	res := c.eng.DoStream(ctx, req, engineDieFunc(onDie))
	return res, res.TypedErr()
}

// engineDieFunc adapts the public per-die observer onto the engine's
// callback shape.
func engineDieFunc(onDie func(Die)) engine.DieFunc {
	if onDie == nil {
		return nil
	}
	return func(die int, mr *MapOutcome, err error) {
		onDie(Die{Index: die, Map: mr, Err: err})
	}
}

// Synthesize implements f on the requested technology through the
// shared synthesis cache.
func (c *Client) Synthesize(ctx context.Context, f FunctionSpec, opts ...Option) (*Synthesis, error) {
	res, err := c.do(ctx, KindSynthesize, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Synthesis, nil
}

// Compare synthesizes f on diode, FET, and four-terminal technologies.
func (c *Client) Compare(ctx context.Context, f FunctionSpec, opts ...Option) (*Comparison, error) {
	res, err := c.do(ctx, KindCompare, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Compare, nil
}

// Map places the synthesized implementation on one defective chip.
func (c *Client) Map(ctx context.Context, f FunctionSpec, opts ...Option) (*MapOutcome, error) {
	res, err := c.do(ctx, KindMap, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Map, nil
}

// YieldSweep maps f onto WithChips independently drawn dies,
// streaming per-die outcomes to the OnDie observer as they complete.
func (c *Client) YieldSweep(ctx context.Context, f FunctionSpec, opts ...Option) (*YieldStats, error) {
	res, err := c.do(ctx, KindYield, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Yield, nil
}
