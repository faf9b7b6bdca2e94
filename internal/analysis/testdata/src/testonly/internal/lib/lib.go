// Fixture: the internal package of a module of its own, so the testonly
// analyzer sees a whole-module load. lib_test.go calls every flagged
// declaration; the loader never reads it, so those calls do not count.
package lib

import "fmt"

// TestOnly has no caller outside lib_test.go.
func TestOnly() int { return 1 } // want "exported function TestOnly is referenced by no non-test file"

// Used is called from cmd/tool, a second non-test package.
func Used() int { return 2 }

// Countdown refers only to itself.
func Countdown(n int) int { // want "exported function Countdown"
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Limit is read only by tests.
const Limit = 4 // want "exported constant Limit"

// Seen is read only by tests.
var Seen = map[string]bool{} // want "exported variable Seen"

// Unused is named only by tests.
type Unused struct{} // want "exported type Unused"

// Point is built by cmd/tool.
type Point struct{ X int }

// String satisfies fmt.Stringer: fmt calls it, nobody names it.
func (p Point) String() string { return fmt.Sprintf("(%d)", p.X) }

// Scale is called only by tests.
func (p Point) Scale(k int) Point { return Point{X: p.X * k} } // want "exported method Point.Scale"

// Shape is aliased by pkg/nanoxbar; an alias does not make its methods
// called.
type Shape struct{}

// Area has no caller in the module.
func (Shape) Area() int { return 0 } // want "exported method Shape.Area"

// Perimeter is called from examples/demo through the SDK alias.
func (Shape) Perimeter() int { return 0 }

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }

// Unwrap is called through package errors' unnamed interface.
func (w wrapped) Unwrap() error { return w.err }

// Wrap is called from cmd/tool.
func Wrap(err error) error { return wrapped{err} }

// Seam is a deliberate test seam.
//
//xbarvet:ignore testonly: fixture's reasoned test seam
func Seam() {}

// Silent's ignore has no reason, so it suppresses nothing.
//
//xbarvet:ignore
func Silent() {} // want "exported function Silent"
