package arith

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
)

var opts = latsynth.DefaultOptions()

func TestNetworkSingleNode(t *testing.T) {
	nw := NewNetwork(2)
	and2 := truthtab.Var(2, 0).And(truthtab.Var(2, 1))
	s := nw.AddNode(synthLattice(and2, opts), []Signal{0, 1})
	nw.Outputs = []Signal{s}
	for a := uint64(0); a < 4; a++ {
		want := a == 3
		if nw.Eval(a)[0] != want {
			t.Fatalf("and node wrong at %b", a)
		}
	}
}

func TestNetworkChaining(t *testing.T) {
	// (x0 AND x1) OR x2 via two nodes.
	nw := NewNetwork(3)
	and2 := truthtab.Var(2, 0).And(truthtab.Var(2, 1))
	or2 := truthtab.Var(2, 0).Or(truthtab.Var(2, 1))
	s1 := nw.AddNode(synthLattice(and2, opts), []Signal{0, 1})
	s2 := nw.AddNode(synthLattice(or2, opts), []Signal{s1, 2})
	nw.Outputs = []Signal{s2}
	for a := uint64(0); a < 8; a++ {
		want := (a&3 == 3) || a>>2&1 == 1
		if nw.Eval(a)[0] != want {
			t.Fatalf("chained network wrong at %b", a)
		}
	}
}

func TestRippleAdderExhaustiveSmall(t *testing.T) {
	for n := 1; n <= 4; n++ {
		nw := RippleAdder(n, opts)
		if len(nw.Outputs) != n+1 {
			t.Fatalf("adder outputs = %d", len(nw.Outputs))
		}
		for a := uint64(0); a < 1<<uint(n); a++ {
			for b := uint64(0); b < 1<<uint(n); b++ {
				if got := AddUint(nw, n, a, b); got != a+b {
					t.Fatalf("%d-bit adder: %d+%d = %d", n, a, b, got)
				}
			}
		}
	}
}

func TestRippleAdderRandomWide(t *testing.T) {
	n := 8
	nw := RippleAdder(n, opts)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := rng.Uint64() & 0xff
		b := rng.Uint64() & 0xff
		if got := AddUint(nw, n, a, b); got != a+b {
			t.Fatalf("8-bit adder: %d+%d = %d", a, b, got)
		}
	}
}

func TestAdderAreaLinear(t *testing.T) {
	// Ripple structure must scale linearly (≈ per-bit cost), unlike a
	// flat single-lattice high bit which explodes.
	a2 := RippleAdder(2, opts).TotalArea()
	a8 := RippleAdder(8, opts).TotalArea()
	if a8 > 5*a2*4 { // generous linearity envelope
		t.Fatalf("adder area grows superlinearly: %d → %d", a2, a8)
	}
	if RippleAdder(4, opts).NumLattices() != 2+3*2 {
		t.Fatal("expected 2 half-adder + 6 full-adder lattices")
	}
}

func TestComparatorExhaustive(t *testing.T) {
	for n := 1; n <= 4; n++ {
		nw := Comparator(n, opts)
		for a := uint64(0); a < 1<<uint(n); a++ {
			for b := uint64(0); b < 1<<uint(n); b++ {
				if got := GreaterUint(nw, n, a, b); got != (a > b) {
					t.Fatalf("%d-bit comparator: %d>%d = %v", n, a, b, got)
				}
			}
		}
	}
}

func TestQuickAdder(t *testing.T) {
	n := 6
	nw := RippleAdder(n, opts)
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	prop := func(a, b uint64) bool {
		a &= 63
		b &= 63
		return AddUint(nw, n, a, b) == a+b
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkValidation(t *testing.T) {
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	nw := NewNetwork(2)
	l := synthLattice(truthtab.Var(2, 0).And(truthtab.Var(2, 1)), opts)
	mustPanic(func() { nw.AddNode(l, []Signal{0}) })     // too few inputs
	mustPanic(func() { nw.AddNode(l, []Signal{0, 5}) })  // forward reference
	mustPanic(func() { nw.AddNode(l, []Signal{0, -1}) }) // negative
	mustPanic(func() { RippleAdder(0, opts) })
	mustPanic(func() { Comparator(0, opts) })
}

func TestSSM101Detector(t *testing.T) {
	spec := SequenceDetector101()
	m, err := SynthesizeSSM(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := []uint64{1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1}
	got := m.Run(in)
	want := spec.ReferenceRun(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: lattice SSM %v, reference %v", i, got, want)
		}
	}
	// Overlap check: 10101 fires at positions 2 and 4.
	got = m.Run([]uint64{1, 0, 1, 0, 1})
	if !got[2] || !got[4] || got[0] || got[1] || got[3] {
		t.Fatalf("overlap handling wrong: %v", got)
	}
}

func TestSSMEquivalenceRandomMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		states := 2 + rng.Intn(5)
		inBits := 1 + rng.Intn(2)
		spec := &MooreSpec{NumStates: states, InBits: inBits}
		for s := 0; s < states; s++ {
			row := make([]int, 1<<uint(inBits))
			for i := range row {
				row[i] = rng.Intn(states)
			}
			spec.Next = append(spec.Next, row)
			spec.Out = append(spec.Out, rng.Intn(2) == 1)
		}
		m, err := SynthesizeSSM(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]uint64, 64)
		for i := range in {
			in[i] = uint64(rng.Intn(1 << uint(inBits)))
		}
		got := m.Run(in)
		want := spec.ReferenceRun(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("machine %d diverges at step %d", trial, i)
			}
		}
	}
}

func TestSSMValidation(t *testing.T) {
	bad := &MooreSpec{NumStates: 2, InBits: 1, Next: [][]int{{0, 5}, {0, 0}}, Out: []bool{false, true}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid transition accepted")
	}
	short := &MooreSpec{NumStates: 2, InBits: 1, Next: [][]int{{0}}, Out: []bool{false}}
	if err := short.Validate(); err == nil {
		t.Fatal("short table accepted")
	}
	if _, err := SynthesizeSSM(bad, opts); err == nil {
		t.Fatal("synthesize must reject invalid spec")
	}
}

func TestSSMAreaReported(t *testing.T) {
	m, err := SynthesizeSSM(SequenceDetector101(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalArea() <= 0 {
		t.Fatal("area must be positive")
	}
	if len(m.NextBits) != 2 {
		t.Fatalf("4-state machine needs 2 next-state lattices, got %d", len(m.NextBits))
	}
}

func TestSSMStepAndReset(t *testing.T) {
	m, err := SynthesizeSSM(SequenceDetector101(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m.Step(1)
	m.Step(0)
	out := m.Step(1)
	if !out || m.state != 3 {
		t.Fatalf("after 101: state %d out %v", m.state, out)
	}
	m.Reset()
	if m.state != 0 || m.Output() {
		t.Fatal("reset failed")
	}
}

// Guard: lattice networks reject mismatched lattices at evaluation
// boundaries — an all-constant lattice still works.
func TestConstantLatticeInNetwork(t *testing.T) {
	nw := NewNetwork(1)
	s := nw.AddNode(lattice.Constant(true), []Signal{})
	nw.Outputs = []Signal{s}
	if !nw.Eval(0)[0] {
		t.Fatal("constant node")
	}
}
