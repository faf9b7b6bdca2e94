// Fixture: the module's command, a non-test caller of lib.
package main

import (
	"errors"
	"fmt"

	"fixture/internal/lib"
	"fixture/pkg/nanoxbar"
)

func main() {
	var s nanoxbar.Shape
	fmt.Println(lib.Used(), lib.Point{X: 1}, s, errors.Unwrap(lib.Wrap(errors.New("x"))))
}
