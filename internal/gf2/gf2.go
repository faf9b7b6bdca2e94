// Package gf2 provides bit-packed linear algebra over GF(2) for up to 64
// dimensions: row reduction, rank, null spaces, and affine hulls of point
// sets. It is the algebraic substrate of the D-reducible function
// preprocessing (package dreduce), where Boolean points live in GF(2)^n
// and the affine hull of a function's on-set defines its associated
// affine space A.
package gf2

import (
	"fmt"
	"math/bits"
)

// Dot returns the GF(2) inner product (parity of the AND) of two vectors.
func Dot(a, b uint64) uint64 {
	return uint64(bits.OnesCount64(a&b) & 1)
}

// Matrix is a dense GF(2) matrix with up to 64 columns; each row is a
// bit mask with bit j = entry (row, j).
type Matrix struct {
	Cols int
	Rows []uint64
}

// NewMatrix returns a matrix with the given rows.
func NewMatrix(cols int, rows ...uint64) *Matrix {
	if cols < 0 || cols > 64 {
		panic(fmt.Sprintf("gf2: %d columns out of range", cols))
	}
	m := &Matrix{Cols: cols, Rows: append([]uint64(nil), rows...)}
	msk := mask(cols)
	for i := range m.Rows {
		m.Rows[i] &= msk
	}
	return m
}

func mask(cols int) uint64 {
	if cols == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(cols)) - 1
}

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	return NewMatrix(m.Cols, m.Rows...)
}

// RREF row-reduces the matrix in place to reduced row echelon form and
// returns the pivot column of each nonzero row, in order.
func (m *Matrix) RREF() []int {
	var pivots []int
	r := 0
	for c := 0; c < m.Cols && r < len(m.Rows); c++ {
		// Find a row at or below r with a 1 in column c.
		sel := -1
		for i := r; i < len(m.Rows); i++ {
			if m.Rows[i]>>uint(c)&1 == 1 {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		m.Rows[r], m.Rows[sel] = m.Rows[sel], m.Rows[r]
		for i := range m.Rows {
			if i != r && m.Rows[i]>>uint(c)&1 == 1 {
				m.Rows[i] ^= m.Rows[r]
			}
		}
		pivots = append(pivots, c)
		r++
	}
	// Drop zero rows.
	m.Rows = m.Rows[:r]
	return pivots
}

// Rank returns the rank of the matrix (does not modify it).
func (m *Matrix) Rank() int {
	c := m.Clone()
	return len(c.RREF())
}

// NullSpace returns a basis of {x : M·x = 0} (x as a column vector,
// bit j of x multiplying column j).
func (m *Matrix) NullSpace() []uint64 {
	c := m.Clone()
	pivots := c.RREF()
	isPivot := make([]bool, m.Cols)
	for _, p := range pivots {
		isPivot[p] = true
	}
	var basis []uint64
	for free := 0; free < m.Cols; free++ {
		if isPivot[free] {
			continue
		}
		// Set the free variable to 1, solve for pivots.
		v := uint64(1) << uint(free)
		for i, p := range pivots {
			if c.Rows[i]>>uint(free)&1 == 1 {
				v |= 1 << uint(p)
			}
		}
		basis = append(basis, v)
	}
	return basis
}

// Affine is an affine subspace p0 ⊕ span(Basis) of GF(2)^n.
type Affine struct {
	N     int
	Point uint64   // a representative point p0
	Basis []uint64 // linearly independent direction vectors (RREF rows)
}

// Dim returns the dimension of the affine space.
func (a *Affine) Dim() int { return len(a.Basis) }

// AffineHull returns the smallest affine subspace of GF(2)^n containing
// all points. It panics if points is empty (the empty set has no hull).
func AffineHull(n int, points []uint64) *Affine {
	if len(points) == 0 {
		panic("gf2: affine hull of empty point set")
	}
	p0 := points[0]
	var dirs []uint64
	for _, p := range points[1:] {
		dirs = append(dirs, (p^p0)&mask(n))
	}
	m := NewMatrix(n, dirs...)
	m.RREF()
	return &Affine{N: n, Point: p0 & mask(n), Basis: append([]uint64(nil), m.Rows...)}
}

// ParityCheck is one affine constraint ⟨Vec, x⟩ = Rhs over GF(2).
type ParityCheck struct {
	Vec uint64
	Rhs uint64 // 0 or 1
}

// Holds reports whether x satisfies the check.
func (pc ParityCheck) Holds(x uint64) bool { return Dot(pc.Vec, x) == pc.Rhs }

// ParityChecks returns n−dim(A) independent affine constraints whose
// simultaneous solutions are exactly the affine space: x ∈ A iff every
// check holds. The constraint vectors are weight-reduced: sparse checks
// mean cheap characteristic-function lattices downstream (a weight-w
// affine constraint needs 2^(w-1) SOP products).
func (a *Affine) ParityChecks() []ParityCheck {
	m := NewMatrix(a.N, a.Basis...)
	ortho := ReduceWeight(m.NullSpace())
	checks := make([]ParityCheck, 0, len(ortho))
	for _, h := range ortho {
		checks = append(checks, ParityCheck{Vec: h, Rhs: Dot(h, a.Point)})
	}
	return checks
}

// ReduceWeight greedily lowers the Hamming weight of a set of
// independent vectors by replacing a vector with its XOR against
// another whenever that is lighter. Row operations preserve both the
// span and independence, so the result generates the same space.
func ReduceWeight(vs []uint64) []uint64 {
	for changed := true; changed; {
		changed = false
		for i := range vs {
			for j := range vs {
				if i == j {
					continue
				}
				if bits.OnesCount64(vs[i]^vs[j]) < bits.OnesCount64(vs[i]) {
					vs[i] ^= vs[j]
					changed = true
				}
			}
		}
	}
	return vs
}

// FreeCoordinates returns dim(A) coordinate positions such that every
// point of A is uniquely determined by its values on them (the pivot
// columns of the RREF basis).
func (a *Affine) FreeCoordinates() []int {
	m := NewMatrix(a.N, a.Basis...)
	return m.RREF()
}

// PointFromFree reconstructs the unique point of A whose values at the
// free coordinates (as returned by FreeCoordinates) match the bits of
// freeVals: bit i of freeVals is the value at free coordinate i.
func (a *Affine) PointFromFree(free []int, freeVals uint64) uint64 {
	x := a.Point
	for i, c := range free {
		want := freeVals >> uint(i) & 1
		if x>>uint(c)&1 != want {
			// Flip using the basis vector whose pivot is c. Because
			// the basis is in RREF, basis[i] is exactly that vector,
			// and adding it does not disturb earlier pivots... it may
			// disturb later ones, which subsequent iterations fix.
			x ^= a.Basis[i]
		}
	}
	return x & mask(a.N)
}

// Enumerate calls fn for every point of the affine space.
func (a *Affine) Enumerate(fn func(x uint64)) {
	d := a.Dim()
	for t := uint64(0); t < uint64(1)<<uint(d); t++ {
		x := a.Point
		for i := 0; i < d; i++ {
			if t>>uint(i)&1 == 1 {
				x ^= a.Basis[i]
			}
		}
		fn(x & mask(a.N))
	}
}
