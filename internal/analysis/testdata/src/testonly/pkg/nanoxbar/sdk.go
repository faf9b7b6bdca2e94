// Fixture: the module's SDK package, judged like internal/: a name
// counts as SDK surface once a command or an example calls it.
package nanoxbar

import "fixture/internal/lib"

// Shape is the SDK name of lib.Shape.
type Shape = lib.Shape

// Version is named by examples/demo.
const Version = "1"

// Unnamed has no caller outside the SDK's tests.
func Unnamed() int { return 0 } // want "exported function Unnamed"
