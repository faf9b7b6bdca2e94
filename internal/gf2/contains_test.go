package gf2

import "math/bits"

// Membership tests, the oracle the hull and span properties are
// checked against. Production code reads an affine space only through
// its parity checks.

// SpanContains reports whether v lies in the row span of the matrix.
func (m *Matrix) SpanContains(v uint64) bool {
	c := m.Clone()
	c.RREF()
	for _, row := range c.Rows {
		if row == 0 {
			continue
		}
		low := uint(bits.TrailingZeros64(row))
		if v>>low&1 == 1 {
			v ^= row
		}
	}
	return v&mask(m.Cols) == 0
}

// Contains reports whether x lies in the affine space.
func (a *Affine) Contains(x uint64) bool {
	m := NewMatrix(a.N, a.Basis...)
	return m.SpanContains((x ^ a.Point) & mask(a.N))
}
