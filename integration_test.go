package nanoxbar_test

// End-to-end integration tests: expression front end → synthesis on
// every technology → fault-tolerant placement on a defective chip →
// defect-unaware recovery — the complete flow of the DATE'17 paper,
// crossing every internal package boundary.

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/arith"
	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/bexpr"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/bist"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/dflow"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/redundancy"
	"nanoxbar/internal/variation"
)

func TestEndToEndSynthesisToPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// 1. Parse a function the way a user would.
	f, _, err := bexpr.ParseTT("x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6")
	if err != nil {
		t.Fatal(err)
	}
	// 2. Synthesize on all three technologies and verify each.
	cmp, err := core.CompareTechnologies(f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range []*core.Implementation{cmp.Diode, cmp.FET, cmp.Lattice} {
		if !im.Verify(f) {
			t.Fatalf("%v implementation broken", im.Tech)
		}
	}
	// 3. Fabricate a defective chip large enough for the lattice.
	n := 24
	chip := defect.Random(n, n, defect.UniformCrosspoint(0.03), rng)
	// 4. Place with the hybrid self-mapper and validate.
	rep, err := core.MapWithRecovery(cmp.Lattice, chip, bism.Hybrid{}, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mapping == nil {
		t.Fatalf("placement failed: %+v", rep.Stats)
	}
	if !bism.Validate(bism.NewChip(chip), cmp.Lattice.ToApp(), rep.Mapping) {
		t.Fatal("placement invalid")
	}
	// 5. Alternatively, recover a universal sub-crossbar and confirm
	// the lattice fits inside it trivially.
	e := dflow.Greedy(chip)
	if e.K() < cmp.Lattice.Rows || e.K() < cmp.Lattice.Cols {
		t.Skipf("recovered k=%d too small for %d×%d (rare at p=3%%)", e.K(), cmp.Lattice.Rows, cmp.Lattice.Cols)
	}
	if !dflow.IsUniversal(chip, e.Rows[:cmp.Lattice.Rows], e.Cols[:cmp.Lattice.Cols]) {
		t.Fatal("sub-crossbar slice not universal")
	}
}

func TestEndToEndTestAndDiagnoseMatchesDefects(t *testing.T) {
	// The BIST machinery must detect a chip whose configuration is hit
	// by an injected fault, for every fault kind, on the synthesized
	// array shape of a real function.
	f := benchfn.Majority(3).F
	im, err := core.Synthesize(f, core.FourTerminal, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, c := im.Rows, im.Cols
	suite := bist.DetectionSuite(r, c)
	for _, fault := range bist.Universe(r, c) {
		if !suite.Detects(fault) {
			t.Fatalf("undetected fault %v on the synthesized %d×%d shape", fault, r, c)
		}
	}
}

func TestEndToEndReliabilityPipeline(t *testing.T) {
	// Synthesis → variation placement → TMR → aging: the §IV pipeline.
	rng := rand.New(rand.NewSource(7))
	res, err := latsynth.DualMethod(benchfn.Majority(3).F, latsynth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l := res.Lattice
	// Variation-aware placement on a 16×16 chip.
	vm := variation.Lognormal(16, 16, 0.5, rng)
	best, worst := variation.BestPlacement(l, vm, 3, 2)
	if best.Delay > worst.Delay {
		t.Fatal("placement ordering broken")
	}
	// TMR protects the placed lattice against transients.
	bare, prot := redundancy.ErrorRates(l, 3, 3, 0.02, 3000, rng)
	if prot >= bare {
		t.Fatalf("TMR ineffective: %v vs %v", prot, bare)
	}
	// Aging with repair outlives aging without.
	noRep := redundancy.Lifetime(l, 3, redundancy.LifetimeParams{
		ChipN: 20, FaultsPerEp: 1.5, Epochs: 200, RetestEvery: 0, Seed: 3,
	})
	withRep := redundancy.Lifetime(l, 3, redundancy.LifetimeParams{
		ChipN: 20, FaultsPerEp: 1.5, Epochs: 200, RetestEvery: 2, RemapBudget: 100, Seed: 3,
	})
	if withRep.EpochsAlive <= noRep.EpochsAlive {
		t.Fatalf("repair did not help: %d vs %d", withRep.EpochsAlive, noRep.EpochsAlive)
	}
}

func TestEndToEndSSMOnRecoveredChip(t *testing.T) {
	// Future-work integration: synthesize the SSM, place each of its
	// lattices on a recovered defect-free sub-crossbar.
	rng := rand.New(rand.NewSource(21))
	m, err := arith.SynthesizeSSM(arith.SequenceDetector101(), latsynth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	chip := defect.Random(16, 16, defect.UniformCrosspoint(0.05), rng)
	e := dflow.Greedy(chip)
	for i, l := range append(m.NextBits, m.OutBit) {
		if l.R > e.K() || l.C > e.K() {
			t.Skipf("lattice %d larger than recovered region", i)
		}
	}
	// The recovered region hosts every SSM lattice without any
	// defect-awareness — the point of the Fig. 6(b) flow.
	if e.K() > 0 && !dflow.IsUniversal(chip, e.Rows, e.Cols) {
		t.Fatal("recovered region not universal")
	}
}
