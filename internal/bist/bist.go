// Package bist implements the built-in self-test (BIST) and
// self-diagnosis (BISD) of Section IV-A of the DATE'17 paper for
// reconfigurable diode-style crossbars.
//
// Model. A test-mode crossbar has R horizontal product lines and C
// vertical input lines (C ≤ 64). A configuration closes a subset of
// crosspoints; row r outputs the wired-AND of the inputs on its closed
// columns (an empty row reads 1), and every row output is observable in
// test mode.
//
// The detection suite follows the paper's key idea — configure
// "single-term functions" so every sensitized fault propagates to an
// output — and achieves exhaustive coverage of the single-fault universe
// (crosspoints stuck-open/stuck-closed, broken lines, adjacent-line
// bridges, functional crosspoint faults) with a configuration count that
// does not grow with the array size (only the vector count does).
//
// The diagnosis suite encodes each crosspoint in binary across
// ⌈log2(R·C)⌉ configurations plus two disambiguators, so the pass/fail
// syndrome uniquely identifies the faulty resource — the logarithmic
// block-code scheme of the paper.
package bist

import (
	"fmt"
	"math/bits"
)

// FaultKind enumerates the single-fault universe.
type FaultKind uint8

// Fault kinds of the crossbar test model.
const (
	FaultFree  FaultKind = iota
	SAOpen               // crosspoint never closes
	SAClosed             // crosspoint never opens
	RowBreak             // product line broken: reads constant 1
	ColBreak             // input line broken: reads constant 1
	RowBridge            // rows r and r+1 short: wired-AND
	ColBridge            // cols c and c+1 short: inputs wired-AND
	Functional           // crosspoint inverts its input contribution
)

func (k FaultKind) String() string {
	switch k {
	case FaultFree:
		return "fault-free"
	case SAOpen:
		return "sa-open"
	case SAClosed:
		return "sa-closed"
	case RowBreak:
		return "row-break"
	case ColBreak:
		return "col-break"
	case RowBridge:
		return "row-bridge"
	case ColBridge:
		return "col-bridge"
	case Functional:
		return "functional"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Fault is a single fault instance. R/C index the affected crosspoint
// (SAOpen, SAClosed, Functional), row (RowBreak: R; RowBridge: rows
// R,R+1) or column (ColBreak: C; ColBridge: cols C,C+1).
type Fault struct {
	Kind FaultKind
	R, C int
}

func (f Fault) String() string {
	switch f.Kind {
	case SAOpen, SAClosed, Functional:
		return fmt.Sprintf("%v@(%d,%d)", f.Kind, f.R, f.C)
	case RowBreak, RowBridge:
		return fmt.Sprintf("%v@row%d", f.Kind, f.R)
	default:
		return fmt.Sprintf("%v@col%d", f.Kind, f.C)
	}
}

// Universe returns the complete single-fault universe for an R×C
// crossbar.
func Universe(r, c int) []Fault {
	var fs []Fault
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			fs = append(fs, Fault{SAOpen, i, j}, Fault{SAClosed, i, j}, Fault{Functional, i, j})
		}
	}
	for i := 0; i < r; i++ {
		fs = append(fs, Fault{RowBreak, i, 0})
	}
	for j := 0; j < c; j++ {
		fs = append(fs, Fault{ColBreak, 0, j})
	}
	for i := 0; i+1 < r; i++ {
		fs = append(fs, Fault{RowBridge, i, 0})
	}
	for j := 0; j+1 < c; j++ {
		fs = append(fs, Fault{ColBridge, 0, j})
	}
	return fs
}

// Config is one test configuration: a crosspoint closure pattern plus
// the input vectors applied under it. Rows are bit masks over columns.
type Config struct {
	Name    string
	Rows    []uint64 // closed crosspoints per row
	Vectors []uint64 // input vectors (bit c = input c)
}

// Suite is an ordered set of configurations.
type Suite struct {
	R, C    int
	Configs []Config
}

// NumConfigs returns the configuration count.
func (s *Suite) NumConfigs() int { return len(s.Configs) }

// NumVectors returns the total vector applications.
func (s *Suite) NumVectors() int {
	n := 0
	for _, c := range s.Configs {
		n += len(c.Vectors)
	}
	return n
}

// Simulate computes the row outputs of the crossbar under a
// configuration, input vector, and fault.
func Simulate(r, c int, conf []uint64, f Fault, v uint64) []uint64 {
	colMask := uint64(1)<<uint(c) - 1
	// Effective inputs.
	in := v & colMask
	switch f.Kind {
	case ColBreak:
		in |= 1 << uint(f.C) // floating column reads pulled-up 1
	case ColBridge:
		both := in >> uint(f.C) & 1 & (in >> uint(f.C+1) & 1)
		in &^= 3 << uint(f.C)
		in |= both<<uint(f.C) | both<<uint(f.C+1)
	}
	out := make([]uint64, r)
	for i := 0; i < r; i++ {
		m := conf[i] & colMask
		switch f.Kind {
		case SAOpen:
			if i == f.R {
				m &^= 1 << uint(f.C)
			}
		case SAClosed:
			if i == f.R {
				m |= 1 << uint(f.C)
			}
		}
		eff := in
		if f.Kind == Functional && i == f.R && m>>uint(f.C)&1 == 1 {
			eff ^= 1 << uint(f.C) // device inverts its contribution
		}
		// Wired-AND of connected inputs; empty row pulls up to 1.
		if eff&m == m {
			out[i] = 1
		}
	}
	if f.Kind == RowBreak {
		out[f.R] = 1
	}
	if f.Kind == RowBridge {
		and := out[f.R] & out[f.R+1]
		out[f.R], out[f.R+1] = and, and
	}
	return out
}

// golden is Simulate with no fault.
func golden(r, c int, conf []uint64, v uint64) []uint64 {
	return Simulate(r, c, conf, Fault{Kind: FaultFree}, v)
}

// Detects reports whether the suite distinguishes the fault from the
// fault-free crossbar (some configuration and vector produce differing
// outputs).
func (s *Suite) Detects(f Fault) bool {
	for _, cfg := range s.Configs {
		for _, v := range cfg.Vectors {
			g := golden(s.R, s.C, cfg.Rows, v)
			b := Simulate(s.R, s.C, cfg.Rows, f, v)
			for i := range g {
				if g[i] != b[i] {
					return true
				}
			}
		}
	}
	return false
}

// Coverage fault-simulates the whole universe and returns the detected
// and total counts.
func (s *Suite) Coverage() (detected, total int) {
	for _, f := range Universe(s.R, s.C) {
		total++
		if s.Detects(f) {
			detected++
		}
	}
	return detected, total
}

// --- detection suite ---

func allRows(r int, m uint64) []uint64 {
	rows := make([]uint64, r)
	for i := range rows {
		rows[i] = m
	}
	return rows
}

// walkingZeros returns the all-ones vector followed by each
// single-zero vector.
func walkingZeros(c int) []uint64 {
	msk := uint64(1)<<uint(c) - 1
	vs := []uint64{msk}
	for j := 0; j < c; j++ {
		vs = append(vs, msk&^(1<<uint(j)))
	}
	return vs
}

// DetectionSuite builds the exhaustive-coverage test set:
//
//	all-closed  + walking-zero vectors  (sa-open, breaks, functional)
//	all-open    + walking-zero vectors  (sa-closed)
//	alternating rows + {all-0, all-1}   (row bridges)
//	single-term diagonals + walking-0   (column bridges; the paper's
//	                                     single-term configurations)
//
// The configuration count is 3 + ⌈C/R⌉ independent of fault count; the
// vector count grows linearly with C.
func DetectionSuite(r, c int) *Suite {
	if c > 64 {
		panic("bist: more than 64 columns unsupported")
	}
	msk := uint64(1)<<uint(c) - 1
	s := &Suite{R: r, C: c}
	s.Configs = append(s.Configs,
		Config{Name: "all-closed", Rows: allRows(r, msk), Vectors: walkingZeros(c)},
		Config{Name: "all-open", Rows: allRows(r, 0), Vectors: walkingZeros(c)},
	)
	alt := make([]uint64, r)
	for i := range alt {
		if i%2 == 0 {
			alt[i] = msk
		}
	}
	s.Configs = append(s.Configs, Config{Name: "alternating-rows", Rows: alt, Vectors: []uint64{0, msk}})
	// Diagonal single-term configurations: shift k makes row i select
	// column (i+k) mod c; shifts step by r so that every column is
	// selected by some row in some diagonal.
	for k := 0; k < c; k += r {
		rows := make([]uint64, r)
		for i := range rows {
			rows[i] = 1 << uint((i+k)%c)
		}
		s.Configs = append(s.Configs, Config{
			Name:    fmt.Sprintf("diagonal-%d", k),
			Rows:    rows,
			Vectors: walkingZeros(c),
		})
	}
	return s
}

// --- diagnosis suite ---

// DiagnosisSuite builds the logarithmic BISD configuration set. The
// pass/fail outcomes across configurations (the syndrome) uniquely
// encode the faulty resource, the paper's block-code scheme:
//
//   - ⌈log2(R·C)⌉ cell-code configurations — crosspoint (i,j) is closed
//     in configuration b iff bit b of i·C+j is set — give stuck-open
//     faults the syndrome "binary cell address" and stuck-closed faults
//     its complement;
//   - all-closed and all-open disambiguate the two stuck polarities;
//   - col0-only and row0-only separate broken-line faults (which involve
//     a whole row or column) from single-cell faults that alias them on
//     power-of-two array sizes;
//   - alternating rows/columns plus ⌈log2⌉ boundary-coded configurations
//     localize bridge faults: a set of rows S detects the bridge at
//     position p iff p lies on the boundary of S, and any desired
//     boundary set is realized by its prefix-parity row set, so binary
//     position codes become realizable boundary families.
//
// Total configurations: ~2·log2(R·C) + 6, logarithmic in the resource
// count as the paper claims.
func DiagnosisSuite(r, c int) *Suite {
	if c > 64 {
		panic("bist: more than 64 columns unsupported")
	}
	nRes := r * c
	bitsNeeded := 1
	for 1<<uint(bitsNeeded) < nRes {
		bitsNeeded++
	}
	msk := uint64(1)<<uint(c) - 1
	s := &Suite{R: r, C: c}
	for b := 0; b < bitsNeeded; b++ {
		rows := make([]uint64, r)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if (i*c+j)>>uint(b)&1 == 1 {
					rows[i] |= 1 << uint(j)
				}
			}
		}
		s.Configs = append(s.Configs, Config{
			Name:    fmt.Sprintf("cell-bit-%d", b),
			Rows:    rows,
			Vectors: walkingZeros(c),
		})
	}
	s.Configs = append(s.Configs,
		Config{Name: "all-closed", Rows: allRows(r, msk), Vectors: walkingZeros(c)},
		Config{Name: "all-open", Rows: allRows(r, 0), Vectors: walkingZeros(c)},
		Config{Name: "col0-only", Rows: allRows(r, 1), Vectors: walkingZeros(c)},
	)
	row0 := make([]uint64, r)
	row0[0] = msk
	s.Configs = append(s.Configs, Config{Name: "row0-only", Rows: row0, Vectors: walkingZeros(c)})

	// Row-bridge localization: full-row sets whose boundaries encode
	// the bridge position in binary (plus the everywhere-boundary
	// alternating set so position 0 is not all-pass).
	if r >= 2 {
		addRowSet := func(name string, member []bool) {
			rows := make([]uint64, r)
			for i := range rows {
				if member[i] {
					rows[i] = msk
				}
			}
			s.Configs = append(s.Configs, Config{Name: name, Rows: rows, Vectors: walkingZeros(c)})
		}
		alt := make([]bool, r)
		for i := range alt {
			alt[i] = i%2 == 1
		}
		addRowSet("alt-rows", alt)
		for b := 0; positionBitUsed(r-1, b); b++ {
			addRowSet(fmt.Sprintf("row-bridge-bit-%d", b), prefixParitySet(r, b))
		}
	}
	// Column-bridge localization: full-column sets, same coding.
	if c >= 2 {
		addColSet := func(name string, member []bool) {
			var m uint64
			for j := range member {
				if member[j] {
					m |= 1 << uint(j)
				}
			}
			s.Configs = append(s.Configs, Config{Name: name, Rows: allRows(r, m), Vectors: walkingZeros(c)})
		}
		alt := make([]bool, c)
		for j := range alt {
			alt[j] = j%2 == 1
		}
		addColSet("alt-cols", alt)
		for b := 0; positionBitUsed(c-1, b); b++ {
			addColSet(fmt.Sprintf("col-bridge-bit-%d", b), prefixParitySet(c, b))
		}
	}
	return s
}

// positionBitUsed reports whether bit b occurs in any position index
// 0..nPos-1.
func positionBitUsed(nPos, b int) bool {
	return nPos > 0 && b < bits.Len(uint(nPos-1))
}

// prefixParitySet returns the membership of the n-element line set whose
// boundary is exactly the positions p (between elements p and p+1) with
// bit b of p set: element i belongs iff an odd number of positions
// below i have bit b set.
func prefixParitySet(n, b int) []bool {
	member := make([]bool, n)
	parity := false
	for i := 0; i < n; i++ {
		member[i] = parity
		// Position i sits between elements i and i+1.
		if i>>uint(b)&1 == 1 {
			parity = !parity
		}
	}
	return member
}

// Syndrome returns the per-configuration pass(false)/fail(true) outcome
// vector for a fault under the suite.
func (s *Suite) Syndrome(f Fault) []bool {
	syn := make([]bool, len(s.Configs))
	for k, cfg := range s.Configs {
		for _, v := range cfg.Vectors {
			g := golden(s.R, s.C, cfg.Rows, v)
			b := Simulate(s.R, s.C, cfg.Rows, f, v)
			for i := range g {
				if g[i] != b[i] {
					syn[k] = true
				}
			}
			if syn[k] {
				break
			}
		}
	}
	return syn
}

func synKey(syn []bool) string {
	b := make([]byte, len(syn))
	for i, v := range syn {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// SyndromeTable maps syndrome keys to the faults producing them; used to
// audit diagnosability (ambiguity groups).
func (s *Suite) SyndromeTable() map[string][]Fault {
	tbl := make(map[string][]Fault)
	for _, f := range Universe(s.R, s.C) {
		k := synKey(s.Syndrome(f))
		tbl[k] = append(tbl[k], f)
	}
	return tbl
}

// LogBound returns the diagnosis configuration count of DiagnosisSuite
// in closed form — Θ(log(R·C)) — for reporting against the paper's
// logarithmic claim.
func LogBound(r, c int) int {
	cellBits := 1
	for 1<<uint(cellBits) < r*c {
		cellBits++
	}
	n := cellBits + 4 // cell bits + all-closed, all-open, col0-only, row0-only
	if r >= 2 {
		n++ // alt-rows
		if r-1 > 1 {
			n += bits.Len(uint(r - 2))
		}
	}
	if c >= 2 {
		n++ // alt-cols
		if c-1 > 1 {
			n += bits.Len(uint(c - 2))
		}
	}
	return n
}
