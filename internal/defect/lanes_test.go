package defect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nanoxbar/internal/xrand"
)

// laneTestParams are the draw distributions the lane/scalar equivalence
// is pinned over: empty, uniform, saturated, wire faults only,
// everything at once, and a clustered map.
func laneTestParams() map[string]Params {
	return map[string]Params{
		"zero":      {},
		"uniform3%": UniformCrosspoint(0.03),
		"dense":     UniformCrosspoint(1.0),
		"wires": {
			PRowBreak: 0.05, PColBreak: 0.05,
			PRowBridge: 0.04, PColBridge: 0.04,
		},
		"everything": {
			PStuckOpen: 0.02, PStuckClosed: 0.01,
			PRowBreak: 0.03, PColBreak: 0.02,
			PRowBridge: 0.02, PColBridge: 0.03,
		},
		"clustered": {
			PStuckOpen: 0.01, PStuckClosed: 0.005,
			Clustered: true, ClusterCount: 3, ClusterRadius: 4, ClusterBoost: 12,
		},
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
// holds its full-draw value; with wire faults the first extension
// finishes the whole die; and the lane ends bit-identical to DrawLane,
// with the source in the same state.
func TestExtendLaneMatchesDrawLane(t *testing.T) {
	named := laneTestParams()
	params := []struct {
		name string
		p    Params
	}{
		{"uniform0", UniformCrosspoint(0)},
		{"uniform2%", UniformCrosspoint(0.02)},
		{"uniform30%", UniformCrosspoint(0.3)},
		{"dense", UniformCrosspoint(1.0)},
		{"wires", named["wires"]},
		{"everything", named["everything"]},
		{"clustered", named["clustered"]},
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
			lp.BeginLane(lane, &cur, p, rng)
			saved := *src
			got := NewMap(r, c)
			for through, first := 0, true; through < r; first = false {
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
				if first && p.wireFaults() && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %dx%d lane %d: wire faults, but the first extension (row %d) left the die unfinished",
						name, r, c, lane, through)
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

// TestDrawLaneLanesIndependent checks lanes don't bleed into each
// other: drawing lanes A and B into one group gives each lane exactly
// its own die.
func TestDrawLaneLanesIndependent(t *testing.T) {
	p := UniformCrosspoint(0.05)
	p.PRowBreak, p.PColBridge = 0.05, 0.05
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
	for r := 0; r < lp.R; r++ {
		dst.SetRowBroken(r, lp.rowBroken[r]&bit != 0)
	}
	for c := 0; c < lp.C; c++ {
		dst.SetColBroken(c, lp.colBroken[c]&bit != 0)
	}
	for r := 0; r+1 < lp.R; r++ {
		dst.SetRowBridge(r, lp.rowBridge[r]&bit != 0)
	}
	for c := 0; c+1 < lp.C; c++ {
		dst.SetColBridge(c, lp.colBridge[c]&bit != 0)
	}
}
