package bist

import (
	"fmt"
	"testing"
)

func TestSimulateFaultFree(t *testing.T) {
	// 2×3 all-closed: output = AND of all inputs.
	conf := []uint64{0b111, 0b111}
	out := Simulate(2, 3, conf, Fault{Kind: FaultFree}, 0b111)
	if out[0] != 1 || out[1] != 1 {
		t.Fatal("all-ones should read 1")
	}
	out = Simulate(2, 3, conf, Fault{Kind: FaultFree}, 0b101)
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("a zero input must pull the wired-AND low")
	}
	// Empty rows read pulled-up 1.
	out = Simulate(2, 3, []uint64{0, 0b1}, Fault{Kind: FaultFree}, 0)
	if out[0] != 1 || out[1] != 0 {
		t.Fatal("empty row must read 1")
	}
}

func TestSimulateFaults(t *testing.T) {
	conf := []uint64{0b11, 0b11}
	// SA-open removes the literal: row ignores the zeroed column.
	out := Simulate(2, 2, conf, Fault{SAOpen, 0, 1}, 0b01)
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("sa-open: %v", out)
	}
	// SA-closed adds the literal in an open row.
	out = Simulate(2, 2, []uint64{0, 0}, Fault{SAClosed, 1, 0}, 0b10)
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("sa-closed: %v", out)
	}
	// Row break reads constant 1.
	out = Simulate(2, 2, conf, Fault{RowBreak, 0, 0}, 0b00)
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("row-break: %v", out)
	}
	// Column break reads pulled-up 1.
	out = Simulate(1, 2, []uint64{0b11}, Fault{ColBreak, 0, 0}, 0b10)
	if out[0] != 1 {
		t.Fatalf("col-break: %v", out)
	}
	// Row bridge wire-ANDs adjacent outputs.
	out = Simulate(2, 2, []uint64{0b01, 0}, Fault{RowBridge, 0, 0}, 0b00)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("row-bridge: %v", out)
	}
	// Column bridge wire-ANDs adjacent inputs.
	out = Simulate(1, 2, []uint64{0b10}, Fault{ColBridge, 0, 0}, 0b10)
	if out[0] != 0 {
		t.Fatalf("col-bridge: %v", out)
	}
	// Functional fault inverts the contribution.
	out = Simulate(1, 2, []uint64{0b11}, Fault{Functional, 0, 0}, 0b11)
	if out[0] != 0 {
		t.Fatalf("functional: %v", out)
	}
}

func TestUniverseSize(t *testing.T) {
	r, c := 3, 4
	u := Universe(r, c)
	want := 3*r*c + r + c + (r - 1) + (c - 1)
	if len(u) != want {
		t.Fatalf("universe size %d, want %d", len(u), want)
	}
}

func TestDetectionFullCoverage(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {3, 5}, {4, 4}, {5, 3}, {8, 8}, {6, 10}}
	for _, sh := range shapes {
		r, c := sh[0], sh[1]
		s := DetectionSuite(r, c)
		det, total := s.Coverage()
		if det != total {
			// Identify what was missed for the failure message.
			var missed []Fault
			for _, f := range Universe(r, c) {
				if !s.Detects(f) {
					missed = append(missed, f)
				}
			}
			t.Fatalf("%d×%d: coverage %d/%d, missed %v", r, c, det, total, missed)
		}
	}
}

func TestDetectionConfigCountConstant(t *testing.T) {
	// Configuration count must not grow with R and only by ⌈C/R⌉ with C.
	for _, sh := range [][2]int{{4, 4}, {16, 16}, {32, 32}, {64, 64}} {
		s := DetectionSuite(sh[0], sh[1])
		want := 3 + (sh[1]+sh[0]-1)/sh[0]
		if s.NumConfigs() != want {
			t.Fatalf("%v: %d configs, want %d", sh, s.NumConfigs(), want)
		}
	}
}

func TestDiagnosisSyndromeUniqueness(t *testing.T) {
	// Every ambiguity group must consist of faults of the same physical
	// resource (same crosspoint, or known degenerate equivalences on
	// 1-wide arrays).
	shapes := [][2]int{{2, 2}, {3, 3}, {4, 4}, {2, 5}, {5, 2}, {4, 8}}
	for _, sh := range shapes {
		r, c := sh[0], sh[1]
		s := DiagnosisSuite(r, c)
		for key, group := range s.SyndromeTable() {
			if len(group) == 1 {
				continue
			}
			// All members must name the same resource.
			sameCell := true
			for _, f := range group[1:] {
				if !sameResource(group[0], f) {
					sameCell = false
					break
				}
			}
			if !sameCell {
				t.Fatalf("%d×%d: ambiguous syndrome %s: %v", r, c, key, group)
			}
		}
	}
}

// sameResource groups faults that point at the same repair unit: the
// same crosspoint (stuck-open and functional faults of one cell are
// repaired identically — avoid the cell).
func sameResource(a, b Fault) bool {
	cellKind := func(k FaultKind) bool { return k == SAOpen || k == Functional }
	if cellKind(a.Kind) && cellKind(b.Kind) {
		return a.R == b.R && a.C == b.C
	}
	return a.Kind == b.Kind && a.R == b.R && a.C == b.C
}

func TestDiagnosisLogarithmicCount(t *testing.T) {
	for _, sh := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {16, 16}, {16, 32}} {
		s := DiagnosisSuite(sh[0], sh[1])
		if got, want := s.NumConfigs(), LogBound(sh[0], sh[1]); got != want {
			t.Fatalf("%v: %d configs, want log bound %d", sh, got, want)
		}
	}
	// Growth check: doubling each dimension (4× the resources) adds a
	// constant number of configurations (2 cell bits + 1 per bridge
	// code), i.e. configurations grow logarithmically, not linearly.
	d8 := DiagnosisSuite(8, 8).NumConfigs()
	d16 := DiagnosisSuite(16, 16).NumConfigs()
	d32 := DiagnosisSuite(32, 32).NumConfigs()
	if d16-d8 != d32-d16 {
		t.Fatalf("log growth violated: %d → %d → %d", d8, d16, d32)
	}
	if d16-d8 > 4 {
		t.Fatalf("growth per quadrupling too steep: %d", d16-d8)
	}
}

func TestDiagnoseRoundTrip(t *testing.T) {
	r, c := 4, 5
	s := DiagnosisSuite(r, c)
	cases := []Fault{
		{SAOpen, 2, 3}, {SAClosed, 0, 4}, {RowBreak, 1, 0},
		{ColBreak, 0, 2}, {RowBridge, 2, 0}, {ColBridge, 0, 1},
	}
	table := s.SyndromeTable()
	for _, f := range cases {
		got := table[synKey(s.Syndrome(f))]
		found := false
		for _, g := range got {
			if g == f {
				found = true
			}
			if !sameResource(g, f) {
				t.Fatalf("diagnosis of %v returned unrelated %v", f, g)
			}
		}
		if !found {
			t.Fatalf("diagnosis of %v missed it: %v", f, got)
		}
	}
}

func TestFaultFreeSyndromeAllPass(t *testing.T) {
	s := DiagnosisSuite(3, 3)
	for _, b := range s.Syndrome(Fault{Kind: FaultFree}) {
		if b {
			t.Fatal("fault-free crossbar failed a diagnosis config")
		}
	}
}

func TestSuiteCounts(t *testing.T) {
	s := DetectionSuite(4, 6)
	if s.NumVectors() == 0 || s.NumConfigs() == 0 {
		t.Fatal("empty suite")
	}
	// Vector count grows linearly in C: (C+1) per walking config.
	perWalk := 6 + 1
	want := perWalk + perWalk + 2 + ((6+3)/4)*perWalk
	if s.NumVectors() != want {
		t.Fatalf("vectors = %d, want %d", s.NumVectors(), want)
	}
}

func TestStringForms(t *testing.T) {
	f := Fault{SAOpen, 1, 2}
	if f.String() != "sa-open@(1,2)" {
		t.Fatalf("fault string %q", f)
	}
	if (Fault{RowBreak, 3, 0}).String() != "row-break@row3" {
		t.Fatal("row fault string")
	}
	if fmt.Sprint(FaultFree) != "fault-free" {
		t.Fatal("kind string")
	}
}

func TestPanicsOnWideArray(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >64 columns")
		}
	}()
	DetectionSuite(2, 65)
}
