package defect

import "math/rand"

// RandomScalar is the scalar reference generator: one uniform draw per
// crosspoint. The property tests pin RandomInto's distributions against
// it.
func RandomScalar(r, c int, p Params, rng *rand.Rand) *Map {
	m := NewMap(r, c)
	po, pc := minF(p.PStuckOpen, 1), minF(p.PStuckClosed, 1)
	for ri := 0; ri < r; ri++ {
		for ci := 0; ci < c; ci++ {
			u := rng.Float64()
			switch {
			case u < po:
				m.Set(ri, ci, StuckOpen)
			case u < po+pc:
				m.Set(ri, ci, StuckClosed)
			}
		}
	}
	return m
}
