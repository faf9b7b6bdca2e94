// Fixture: the module's SDK package. Aliasing lib.Shape makes Shape's
// methods public surface whether or not the module calls them.
package nanoxbar

import "fixture/internal/lib"

// Shape is the SDK name of lib.Shape.
type Shape = lib.Shape
