package defect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nanoxbar/internal/xrand"
)

// laneTestParams are the draw distributions the lane/scalar equivalence
// is pinned over: empty, uniform, saturated, and a 2:1 stuck-open to
// stuck-closed split.
func laneTestParams() map[string]Params {
	return map[string]Params{
		"zero":      {},
		"uniform3%": UniformCrosspoint(0.03),
		"dense":     UniformCrosspoint(1.0),
		"split":     {PStuckOpen: 0.02, PStuckClosed: 0.01},
	}
}

// TestDrawLaneMatchesRandomInto is the lane-draw contract: for the same
// seed, DrawLane fills a lane bit-for-bit identically to RandomInto on
// a scalar map, and leaves the RNG in the identical state — which is
// what lets the yield engine's demotion path reseed and replay a
// failing lane as a scalar map.
func TestDrawLaneMatchesRandomInto(t *testing.T) {
	shapes := [][2]int{{1, 1}, {5, 9}, {64, 64}, {70, 3}}
	for name, p := range laneTestParams() {
		for _, shape := range shapes {
			r, c := shape[0], shape[1]
			lp := NewLanePlanes(r, c)
			lp.Reset()
			got := NewMap(r, c)
			want := NewMap(r, c)
			for lane := 0; lane < 64; lane += 13 {
				seed := int64(1000*lane) + int64(r*31+c)
				laneSrc := rand.NewSource(seed)
				laneRng := rand.New(laneSrc)
				lp.DrawLane(lane, p, laneRng)

				refSrc := rand.NewSource(seed)
				refRng := rand.New(refSrc)
				RandomInto(want, p, refRng)

				extractLane(lp, got, lane)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %dx%d lane %d: lane draw differs from RandomInto\nlane:\n%s\nscalar:\n%s",
						name, r, c, lane, got, want)
				}
				if laneRng.Uint64() != refRng.Uint64() {
					t.Fatalf("%s %dx%d lane %d: RNG states diverge after draw", name, r, c, lane)
				}
			}
		}
	}
}

// TestExtendLaneMatchesDrawLane is the resumable-draw contract the
// lane yield runner rests on. On random shapes up to 70×70 a lane is
// begun and extended through a random increasing sequence of rows,
// each call resuming the source state the previous one saved. After
// every extension through row r, each crosspoint in rows < r already
// holds its full-draw value, and the lane ends bit-identical to
// DrawLane, with the source in the same state.
func TestExtendLaneMatchesDrawLane(t *testing.T) {
	params := []struct {
		name string
		p    Params
	}{
		{"uniform0", UniformCrosspoint(0)},
		{"uniform2%", UniformCrosspoint(0.02)},
		{"uniform30%", UniformCrosspoint(0.3)},
		{"dense", UniformCrosspoint(1.0)},
		{"split", laneTestParams()["split"]},
	}
	shapes := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		r, c := 1+shapes.Intn(70), 1+shapes.Intn(70)
		if trial == 0 {
			r, c = 1, 1
		}
		lane := shapes.Intn(64)
		for _, tc := range params {
			name, p := tc.name, tc.p
			seed := shapes.Int63()
			fullSrc, fullRng := xrand.New()
			fullSrc.Seed(seed)
			full := NewLanePlanes(r, c)
			full.DrawLane(lane, p, fullRng)
			want := NewMap(r, c)
			extractLane(full, want, lane)

			// As in the yield runner, the lane's source state is saved
			// after each call and restored before the next, and the
			// shared source draws for other dies in between.
			src, rng := xrand.New()
			src.Seed(seed)
			lp := NewLanePlanes(r, c)
			var cur LaneCursor
			lp.BeginLane(&cur, p, rng, nil)
			saved := *src
			got := NewMap(r, c)
			for through := 0; through < r; {
				through += shapes.Intn(r/3 + 2)
				if through > r {
					through = r
				}
				src.Seed(shapes.Int63())
				rng.Float64()
				*src = saved
				lp.ExtendLane(lane, &cur, p, rng, through)
				saved = *src
				extractLane(lp, got, lane)
				for ri := 0; ri < through; ri++ {
					for ci := 0; ci < c; ci++ {
						if got.At(ri, ci) != want.At(ri, ci) {
							t.Fatalf("%s %dx%d lane %d: crosspoint (%d,%d) after extending through row %d is %v, full draw %v",
								name, r, c, lane, ri, ci, through, got.At(ri, ci), want.At(ri, ci))
						}
					}
				}
			}
			lp.ExtendLane(lane, &cur, p, rng, r) // idempotent once final
			extractLane(lp, got, lane)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %dx%d lane %d: extended lane differs from DrawLane\ngot:\n%s\nwant:\n%s", name, r, c, lane, got, want)
			}
			if rng.Uint64() != fullRng.Uint64() {
				t.Fatalf("%s %dx%d lane %d: source state diverges from DrawLane's", name, r, c, lane)
			}
		}
	}
}

// TestFinishLaneMatchesRandomInto is the demotion contract the lane
// yield runner rests on: a lane begun with a record, extended through
// any row r from 0 to R and finished by FinishLane yields the map
// RandomInto draws from the same seed, and leaves the source in the
// same state, on shapes either side of the 64-column word boundary and
// at densities from none to every site. As in the runner, the shared
// source draws for another die between the lane's calls.
func TestFinishLaneMatchesRandomInto(t *testing.T) {
	shapes := [][2]int{{9, 1}, {5, 63}, {4, 64}, {6, 65}, {70, 70}}
	for _, density := range []float64{0, 0.02, 0.3, 1} {
		p := UniformCrosspoint(density)
		for _, shape := range shapes {
			r, c := shape[0], shape[1]
			lp := NewLanePlanes(r, c)
			got, want := NewMap(r, c), NewMap(r, c)
			rec := make([]uint32, r*c)
			src, rng := xrand.New()
			for through := 0; through <= r; through++ {
				seed := int64(through*7919 + r*c)
				src.Seed(seed)
				RandomInto(want, p, rng)
				wantNext := rng.Uint64()

				lp.Reset()
				src.Seed(seed)
				var cur LaneCursor
				lp.BeginLane(&cur, p, rng, rec)
				lp.ExtendLane(through%64, &cur, p, rng, through)
				saved := *src
				src.Seed(seed + 1)
				rng.ExpFloat64()
				*src = saved
				got.SetRowBroken(0, true) // FinishLane must clear what it does not draw
				if !lp.FinishLane(got, &cur, p, rng) {
					t.Fatalf("d=%v %dx%d through %d: FinishLane refused a record of %d entries", density, r, c, through, len(rec))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("d=%v %dx%d through %d: finished lane differs from RandomInto\ngot:\n%s\nwant:\n%s", density, r, c, through, got, want)
				}
				if rng.Uint64() != wantNext {
					t.Fatalf("d=%v %dx%d through %d: source state diverges from RandomInto's", density, r, c, through)
				}
			}
		}
	}
}

// TestFinishLaneWithoutRecord checks the fallback signal: a lane begun
// without a record, or one whose record filled, is not finished, and
// the map is left alone for the caller's redraw from the seed.
func TestFinishLaneWithoutRecord(t *testing.T) {
	p := UniformCrosspoint(1)
	lp := NewLanePlanes(8, 8)
	m := NewMap(8, 8)
	m.Set(3, 3, StuckClosed)
	for name, rec := range map[string][]uint32{"none": nil, "full": make([]uint32, 63)} {
		var cur LaneCursor
		rng := rand.New(rand.NewSource(1))
		lp.Reset()
		lp.BeginLane(&cur, p, rng, rec)
		lp.ExtendLane(0, &cur, p, rng, 8) // 64 defects
		if lp.FinishLane(m, &cur, p, rng) {
			t.Fatalf("%s: FinishLane finished a lane with no complete record", name)
		}
		if m.CountCrosspointDefects() != 1 || m.At(3, 3) != StuckClosed {
			t.Fatalf("%s: a refused FinishLane changed the map", name)
		}
	}
}

// TestRecordLenBounded checks a lane's record stays within MaxRecord
// and within the sites it covers, at every chip size the engine accepts
// and at any density, out-of-range ones included.
func TestRecordLenBounded(t *testing.T) {
	for _, n := range []int{1, 16, 64, 500, 4096} {
		for _, d := range []float64{-0.5, 0, 0.001, 0.02, 0.3, 1, 2, math.NaN(), math.Inf(1)} {
			for _, rows := range []int{1, n / 2, n} {
				sites := max(rows, 1) * n
				got := RecordLen(UniformCrosspoint(d), sites)
				if got < 0 || got > MaxRecord || got > sites {
					t.Fatalf("n=%d d=%v rows=%d: RecordLen %d outside [0, min(%d, %d)]", n, d, rows, got, sites, MaxRecord)
				}
			}
		}
	}
	// 1 024 sites at 2% expect 20.48 defects with a deviation of 4.48.
	if got := RecordLen(UniformCrosspoint(0.02), 1024); got != 31 {
		t.Fatalf("RecordLen(2%%, 1024) = %d, want 31", got)
	}
}

// TestDrawLaneLanesIndependent checks lanes don't bleed into each
// other: drawing lanes A and B into one group gives each lane exactly
// its own die.
func TestDrawLaneLanesIndependent(t *testing.T) {
	p := UniformCrosspoint(0.05)
	lp := NewLanePlanes(20, 20)
	lp.Reset()
	src := rand.NewSource(7)
	rng := rand.New(src)
	for lane := 0; lane < 64; lane++ {
		src.Seed(int64(lane) * 77)
		lp.DrawLane(lane, p, rng)
	}
	got := NewMap(20, 20)
	want := NewMap(20, 20)
	for lane := 0; lane < 64; lane++ {
		src.Seed(int64(lane) * 77)
		RandomInto(want, p, rng)
		extractLane(lp, got, lane)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lane %d polluted by sibling draws", lane)
		}
	}
}

// TestLanePlanesReset checks a reused group starts clean.
func TestLanePlanesReset(t *testing.T) {
	lp := NewLanePlanes(8, 8)
	rng := rand.New(rand.NewSource(3))
	lp.DrawLane(5, UniformCrosspoint(1.0), rng)
	lp.Reset()
	m := NewMap(8, 8)
	for lane := 0; lane < 64; lane++ {
		extractLane(lp, m, lane)
		if anyDefect(m) {
			t.Fatalf("lane %d dirty after Reset", lane)
		}
	}
}

func BenchmarkDrawLaneGroup64(b *testing.B) {
	// One full 64-die lane group of 64×64 dies at the yield sweep's 2%
	// density: the draw half of the lane yield engine's per-group cost.
	p := UniformCrosspoint(0.02)
	lp := NewLanePlanes(64, 64)
	src := rand.NewSource(42)
	rng := rand.New(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Reset()
		for lane := 0; lane < 64; lane++ {
			src.Seed(int64(i*64 + lane))
			lp.DrawLane(lane, p, rng)
		}
	}
}

// extractLane copies die lane out of the group into dst (same shape),
// overwriting it: the bridge from the lane representation to the
// scalar one.
func extractLane(lp *LanePlanes, dst *Map, lane int) {
	if dst.R != lp.R || dst.C != lp.C {
		panic(fmt.Sprintf("defect: extract %d×%d lane into %d×%d map", lp.R, lp.C, dst.R, dst.C))
	}
	bit := laneBit(lane)
	dst.Reset()
	for r := 0; r < lp.R; r++ {
		for c := 0; c < lp.C; c++ {
			switch i := r*lp.C + c; {
			case lp.open[i]&bit != 0:
				dst.Set(r, c, StuckOpen)
			case lp.clsd[i]&bit != 0:
				dst.Set(r, c, StuckClosed)
			}
		}
	}
}
