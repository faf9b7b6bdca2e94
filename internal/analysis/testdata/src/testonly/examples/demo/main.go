// Fixture: an example, a non-test caller of the SDK.
package main

import (
	"fmt"

	"fixture/pkg/nanoxbar"
)

func main() {
	var s nanoxbar.Shape
	fmt.Println(nanoxbar.Version, s.Perimeter())
}
