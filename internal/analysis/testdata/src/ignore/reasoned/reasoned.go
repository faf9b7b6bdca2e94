// Fixture: a reasoned //xbarvet:ignore over a line that only a Finish
// hook reports on; Run suppresses that finding like a per-package one.
package fixture

func answer() int {
	//xbarvet:ignore probe: Finish findings honour reasoned ignores
	return 42
}

var _ = answer
