// Package yield is the bit-sliced multi-die yield engine: it answers
// "what fraction of fabricated dies can realize this application?" by
// processing dies 64 at a time in lane-word form instead of one scalar
// defect map at a time.
//
// The paper's yield question (Section IV's defect-aware mapping story)
// is embarrassingly parallel across dies, and PR 5 already made the
// per-die primitives bit-parallel along the column axis. This package
// applies the remaining 64x axis — the same 64-lanes-per-word trick the
// redundancy engine uses for Monte Carlo trials — across dies:
//
//  1. Draw. A worker begins a group of 64 dies' crosspoint draws
//     directly in defect.LanePlanes lane words (die-major transposed
//     layout), one seeded stream per die, bit-for-bit the stream
//     RandomInto would produce for the same die seed. Each die is drawn
//     only as far as its checks read: before candidate k is probed, the
//     dies still pending are extended through row (k+1)·appR, each
//     resuming its own saved source state. Most dies pass candidate 0,
//     so most of a die's crosspoints are never drawn.
//  2. Fast check. A fixed schedule of disjoint block-diagonal candidate
//     mappings (candidate k places the application at rows/cols k·appR,
//     k·appC) is probed with bism.CheckLanes — one BIST session per
//     candidate covering all 64 dies at once as word intersections. A
//     die passing candidate k is done: it took k+1 configurations and
//     k+1 BIST calls, and its mapping is the shared candidate.
//  3. Demote. Only dies failing every candidate fall back to the
//     scalar path: finish the die's scalar map with FinishLane, from
//     the defects the lane recorded and the rest of its stream (the map
//     and the RNG end as RandomInto from the die's seed would leave
//     them, and no crosspoint is drawn twice), and run the requested
//     bism mapper with its full greedy/hybrid repair machinery. A lane
//     whose bounded record filled is redrawn from its seed instead.
//
// Because the candidates are disjoint, their failure events are
// independent under uniform defects, so the demotion rate falls
// geometrically with the schedule length and almost every die resolves
// in step 2. The tests hold LaneRunner bit-for-bit — mappings, stats,
// and success flags — to a scalar oracle that draws every die whole
// and checks it with bism.Validate, across word boundaries, degenerate
// defect densities, and schedules that end on the chip's last row.
package yield

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/bitlane"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/xrand"
)

// FaultVersion identifies the fault path's outcomes. Bump it whenever
// some die's success, Stats or mapping changes for its seed — a defect
// draw, the candidate schedule, or a bism mapper's use of its stream.
// testdata/golden.txt pins the outcomes under this version, and the
// daemon reports it on /healthz and as a nanoxbar_build_info label.
const FaultVersion = 2

// Spec is one yield sweep: map Dies random ChipSize×ChipSize dies drawn
// from Params, placing App through Scheme when the fast path demotes.
type Spec struct {
	// App is the application to place (shared, read-only).
	App *bism.App
	// Scheme maps demoted dies — the scalar mapper with repair.
	Scheme bism.Mapper
	// ChipSize is the square die side.
	ChipSize int
	// Params draws each die's defects.
	Params defect.Params
	// Dies is the sweep size.
	Dies int
	// Seed derives per-die streams via xrand.SubSeed(Seed, die).
	Seed int64
	// MaxAttempts bounds the demoted mapper's configurations per die.
	MaxAttempts int
	// Parallel bounds worker goroutines (default 1). Results do not
	// depend on it: every die's outcome is a function of its seed only.
	Parallel int
}

// validate rejects specs the runners cannot execute.
func (s Spec) validate() error {
	switch {
	case s.App == nil:
		return fmt.Errorf("yield: nil application")
	case s.Scheme == nil:
		return fmt.Errorf("yield: nil mapping scheme")
	case s.ChipSize < s.App.R || s.ChipSize < s.App.C:
		return fmt.Errorf("yield: %d×%d application exceeds chip size %d", s.App.R, s.App.C, s.ChipSize)
	case s.Dies < 0:
		return fmt.Errorf("yield: negative die count %d", s.Dies)
	case s.MaxAttempts < 1:
		return fmt.Errorf("yield: max attempts %d < 1", s.MaxAttempts)
	}
	return nil
}

func (s Spec) parallel() int {
	if s.Parallel < 1 {
		return 1
	}
	return s.Parallel
}

// DieResult is one die's outcome.
type DieResult struct {
	// Die is the die index in [0, Spec.Dies).
	Die int
	// Mapping is the successful placement, nil on failure. Fast dies
	// share the schedule's candidate mapping: treat it as read-only.
	Mapping *bism.Mapping
	// Stats is the self-mapping effort, fast-path probes included.
	Stats bism.Stats
	// Fast reports the die resolved on the candidate schedule without
	// scalar demotion.
	Fast bool
	// Err is set when the die could not be processed at all (a panic in
	// the mapper); Mapping and Stats are then meaningless. The dies of
	// a group that panicked share one error and are emitted together.
	Err error
}

// Runner executes yield sweeps. Run invokes emit exactly once per die
// (serialized, completion order across groups, die order within one
// worker's group) and returns early with ctx.Err() when canceled —
// dies not yet started are then never emitted.
type Runner interface {
	Name() string
	Run(ctx context.Context, spec Spec, emit func(DieResult)) error
}

// maxCandidates caps the fast-path probe schedule. Eight disjoint
// candidates drive the expected demotion rate to p_fail^8 while keeping
// the schedule (and the BIST-call count of the unluckiest fast die)
// small; past that the scalar mapper's diagnosis-guided repair is the
// better spend.
const maxCandidates = 8

// candidateCount is the schedule length for an app on an n-chip: as
// many disjoint block placements as fit, capped.
func candidateCount(app *bism.App, n int) int {
	k := n / app.R
	if c := n / app.C; c < k {
		k = c
	}
	if k > maxCandidates {
		k = maxCandidates
	}
	return k
}

// candidateMappings materializes the schedule: candidate k occupies
// rows [k·appR, (k+1)·appR) and cols [k·appC, (k+1)·appC). Disjoint by
// construction, so failure events on distinct candidates touch
// disjoint chip resources.
func candidateMappings(app *bism.App, n int) []*bism.Mapping {
	cands := make([]*bism.Mapping, candidateCount(app, n))
	for k := range cands {
		m := &bism.Mapping{Rows: make([]int, app.R), Cols: make([]int, app.C)}
		for i := range m.Rows {
			m.Rows[i] = k*app.R + i
		}
		for j := range m.Cols {
			m.Cols[j] = k*app.C + j
		}
		cands[k] = m
	}
	return cands
}

// fastStats is the effort of a die that passed candidate k: one
// configuration and one BIST session per candidate probed.
func fastStats(k int) bism.Stats {
	return bism.Stats{Configs: k + 1, BISTCalls: k + 1, Success: true}
}

// LaneRunner is the bit-sliced production path.
type LaneRunner struct{}

// Name implements Runner.
func (LaneRunner) Name() string { return "lane64" }

// Run implements Runner: groups of 64 dies are drawn into lane planes,
// each die only as far as its probes read, and probed per candidate as
// single word-kernel BIST sessions; only failing lanes touch the scalar
// mapper.
func (LaneRunner) Run(ctx context.Context, spec Spec, emit func(DieResult)) error {
	if err := spec.validate(); err != nil {
		return err
	}
	par := spec.parallel()
	// Groups default to the full 64-die word. A small sweep on a wide
	// worker pool would strand most workers (64 dies is ONE group), so
	// shrink the group size until every worker has a group; outcomes are
	// per-die seeded, so the partition cannot change them. The floor
	// keeps the per-group candidate scans amortized over enough lanes.
	groupSize := 64
	if g := (spec.Dies + 63) / 64; g < par {
		groupSize = (spec.Dies + par - 1) / par
		if groupSize < 8 {
			groupSize = 8
		}
	}
	groups := (spec.Dies + groupSize - 1) / groupSize
	if par > groups {
		par = groups
	}
	cands := candidateMappings(spec.App, spec.ChipSize)
	// A lane is drawn at most through the schedule's last row before it
	// demotes, and records the defects it draws there. A worker holds
	// records for as many lanes as the sweep can fill, whatever its group
	// size: the groups of a sweep of 64 dies or more shrink below 64
	// lanes only to spread over more workers, and scratch that followed
	// them would grow with the die count.
	recLen := defect.RecordLen(spec.Params, len(cands)*spec.App.R*spec.ChipSize)
	recLanes := min(spec.Dies, 64)
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		emitMu sync.Mutex
	)
	done := ctx.Done()
	wg.Add(par)
	for range par {
		go func() {
			defer wg.Done()
			w := laneWorker{
				lp:     defect.NewLanePlanes(spec.ChipSize, spec.ChipSize),
				chip:   defect.NewMap(spec.ChipSize, spec.ChipSize),
				rec:    make([]uint32, recLanes*recLen),
				recLen: recLen,
			}
			w.src, w.rng = xrand.New()
			for {
				// The group boundary is the cancellation point: a sweep
				// canceled mid-flight stops drawing new groups; the
				// group being processed finishes.
				select {
				case <-done:
					return
				default:
				}
				g := int(next.Add(1)) - 1
				if g >= groups {
					return
				}
				die0 := g * groupSize
				lanes := spec.Dies - die0
				if lanes > groupSize {
					lanes = groupSize
				}
				w.runGroup(spec, cands, die0, lanes)
				emitMu.Lock()
				for l := 0; l < lanes; l++ {
					emit(w.out[l])
				}
				emitMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// laneWorker is one worker's scratch, reused across every group it
// pulls from the shared counter: the lane planes, one scalar map for
// demotions, the worker's one reseedable die stream, each lane's draw
// cursor, defect record (a fixed recLen-entry slice of rec) and saved
// stream state between probes, and the group's results.
type laneWorker struct {
	lp     *defect.LanePlanes
	chip   *defect.Map
	src    *xrand.SplitMix
	rng    *rand.Rand
	rec    []uint32
	recLen int
	cursor [64]defect.LaneCursor
	state  [64]xrand.SplitMix
	out    [64]DieResult
}

// runGroup processes dies [die0, die0+lanes) into w.out[0:lanes]. Each
// die's stream is drawn only as far as the checks read it: before
// candidate k is probed, the lanes still pending are extended through
// its last row, (k+1)·appR, resuming each lane's saved SplitMix state
// on the worker's one source. A die that passes candidate 0 thus draws
// about appR/N of its crosspoints. A panic anywhere in the group
// (defect draw, lane check, demoted mapper) becomes an Err on every
// die of the group rather than unwinding the worker goroutine.
func (w *laneWorker) runGroup(spec Spec, cands []*bism.Mapping, die0, lanes int) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("yield: panic mapping die group at %d: %v", die0, r)
			for l := 0; l < lanes; l++ {
				w.out[l] = DieResult{Die: die0 + l, Err: err}
			}
		}
	}()
	w.lp.Reset()
	for l := 0; l < lanes; l++ {
		w.src.Seed(xrand.SubSeed(spec.Seed, die0+l))
		end := (l + 1) * w.recLen
		w.lp.BeginLane(&w.cursor[l], spec.Params, w.rng, w.rec[end-w.recLen:end:end])
		w.state[l] = *w.src
	}
	pending := bitlane.Mask(lanes)
	for k, cand := range cands {
		if pending == 0 {
			break
		}
		for p := pending; p != 0; p &= p - 1 {
			l := bits.TrailingZeros64(p)
			*w.src = w.state[l]
			w.lp.ExtendLane(l, &w.cursor[l], spec.Params, w.rng, (k+1)*spec.App.R)
			w.state[l] = *w.src
		}
		failed := bism.CheckLanes(spec.App, w.lp, k*spec.App.R, k*spec.App.C, pending)
		passed := pending &^ failed
		pending &= failed
		for p := passed; p != 0; p &= p - 1 {
			l := bits.TrailingZeros64(p)
			w.out[l] = DieResult{Die: die0 + l, Mapping: cand, Stats: fastStats(k), Fast: true}
		}
	}
	// Demote the lanes no candidate fit: finish each die's map from its
	// record and the rest of its stream, or, if the record filled, redraw
	// the die from its seed.
	for p := pending; p != 0; p &= p - 1 {
		l := bits.TrailingZeros64(p)
		die := die0 + l
		*w.src = w.state[l]
		if !w.lp.FinishLane(w.chip, &w.cursor[l], spec.Params, w.rng) {
			w.src.Seed(xrand.SubSeed(spec.Seed, die))
			defect.RandomInto(w.chip, spec.Params, w.rng)
		}
		m, st := spec.Scheme.Map(bism.NewChip(w.chip), spec.App, spec.MaxAttempts, w.rng)
		st.Configs += len(cands)
		st.BISTCalls += len(cands)
		w.out[l] = DieResult{Die: die, Mapping: m, Stats: st}
	}
}
