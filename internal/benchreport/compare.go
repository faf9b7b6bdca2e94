package benchreport

import (
	"fmt"
	"sort"
	"strings"
)

// Delta is one benchmark present in both reports.
type Delta struct {
	ID    string  `json:"id"`
	OldNs float64 `json:"old_ns_per_op"`
	NewNs float64 `json:"new_ns_per_op"`
	Ratio float64 `json:"ratio"` // new / old; > 1 is slower
}

// Comparison is the outcome of diffing a new report against a baseline.
type Comparison struct {
	Tolerance float64 `json:"tolerance"`
	Compared  int     `json:"compared"`
	// Regressions exceed the tolerance — each one fails the gate.
	Regressions []Delta `json:"regressions,omitempty"`
	// Missing are baseline benchmarks absent from the new report — a
	// deleted or renamed benchmark would silently escape the gate, so
	// the gate fails on them too.
	Missing []string `json:"missing,omitempty"`
}

// OK reports whether the gate passes.
func (c Comparison) OK() bool { return len(c.Regressions) == 0 && len(c.Missing) == 0 }

// Compare diffs `new` against the `old` baseline on ns/op. A benchmark
// regresses when new > old×(1+tolerance).
func Compare(old, new Report, tolerance float64) Comparison {
	cmp := Comparison{Tolerance: tolerance}
	newByID := make(map[string]Benchmark, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		newByID[b.ID()] = b
	}
	for _, ob := range old.Benchmarks {
		nb, ok := newByID[ob.ID()]
		if !ok {
			cmp.Missing = append(cmp.Missing, ob.ID())
			continue
		}
		cmp.Compared++
		if ob.NsPerOp <= 0 {
			continue // a zero baseline cannot regress meaningfully
		}
		d := Delta{ID: ob.ID(), OldNs: ob.NsPerOp, NewNs: nb.NsPerOp, Ratio: nb.NsPerOp / ob.NsPerOp}
		if d.Ratio > 1+tolerance {
			cmp.Regressions = append(cmp.Regressions, d)
		}
	}
	sort.Slice(cmp.Regressions, func(i, j int) bool { return cmp.Regressions[i].Ratio > cmp.Regressions[j].Ratio })
	sort.Strings(cmp.Missing)
	return cmp
}

// Format renders the comparison for CI logs: worst offenders first,
// then the missing benchmarks, then a one-line verdict.
func (c Comparison) Format() string {
	var sb strings.Builder
	line := func(d Delta) {
		fmt.Fprintf(&sb, "  %-60s %12.1f → %12.1f ns/op  (%.2fx)\n", d.ID, d.OldNs, d.NewNs, d.Ratio)
	}
	if len(c.Regressions) > 0 {
		fmt.Fprintf(&sb, "REGRESSIONS (> %.0f%% over baseline):\n", c.Tolerance*100)
		for _, d := range c.Regressions {
			line(d)
		}
	}
	if len(c.Missing) > 0 {
		sb.WriteString("MISSING from new report:\n")
		for _, id := range c.Missing {
			fmt.Fprintf(&sb, "  %s\n", id)
		}
	}
	verdict := "OK"
	if !c.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "%s: %d benchmarks compared, %d regressions, %d missing (tolerance %.0f%%)\n",
		verdict, c.Compared, len(c.Regressions), len(c.Missing), c.Tolerance*100)
	return sb.String()
}
