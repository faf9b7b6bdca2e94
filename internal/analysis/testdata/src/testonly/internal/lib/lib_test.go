package lib

import "testing"

func TestCallers(t *testing.T) {
	_, _, _, _ = TestOnly(), Countdown(1), Limit, Seen
	_ = Unused{}
	_ = Point{X: 1}.Scale(2)
	_ = Shape{}.Area()
	Seam()
	Silent()
}
