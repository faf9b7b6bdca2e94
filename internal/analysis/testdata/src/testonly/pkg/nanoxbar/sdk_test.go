package nanoxbar

import "testing"

func TestUnnamed(t *testing.T) {
	_ = Unnamed()
}
