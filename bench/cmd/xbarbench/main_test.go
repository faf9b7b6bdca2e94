package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"nanoxbar/bench/trace"
	"nanoxbar/bench/workload"
	"nanoxbar/pkg/nanoxbar"
)

// declared is the metric list of the repository's BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// lastResult parses the result line a run ends with.
func lastResult(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	var last string
	for sc := bufio.NewScanner(out); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q is not a result: %v", last, err)
	}
	return res
}

// Every workload at smoke size, untraced and traced: no operation may
// fail, the printed metric names and units must equal those
// BENCHMARK.json declares, in both directions, and a traced run must
// leave its spans behind.
func TestSmoke(t *testing.T) {
	decl := readDeclared(t)
	t.Chdir(t.TempDir())
	start := time.Now()
	for _, name := range workload.Names {
		for _, traced := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run(context.Background(), []string{"-workload", name, "-seed", "1", "-seconds", "0.1", "-short", "-trace", traced}, &out, &errs, nil)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", name, traced, code, errs.String())
			}
			res := lastResult(t, &out)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %s: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if traced == "1" {
				want = decl.PerLayer
				checkSpans(t, name)
			}
			got := make(map[string]string)
			for n, m := range res.Metrics {
				got[n] = m.Unit
			}
			for _, w := range want {
				if u, ok := got[w.Name]; !ok || u != w.Unit {
					t.Errorf("%s trace %s: declared %s [%s], printed [%s] (present %v)", name, traced, w.Name, w.Unit, u, ok)
				}
				delete(got, w.Name)
				if traced == "0" && res.Metrics[w.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", name, w.Name, res.Metrics[w.Name].Value)
				}
			}
			for n := range got {
				t.Errorf("%s trace %s: printed %s, which BENCHMARK.json does not declare", name, traced, n)
			}
		}
	}
	t.Logf("all workloads, both modes: %v", time.Since(start))
}

// checkSpans requires the workload's traced run to have written a
// non-empty span list.
func checkSpans(t *testing.T, name string) {
	t.Helper()
	raw, err := os.ReadFile(spansPath(name))
	if err != nil {
		t.Fatalf("%s: traced run left no spans: %v", name, err)
	}
	var spans []trace.Span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("%s: %d spans written (%v)", name, len(spans), err)
	}
}

func TestCorruptOutputExitsNonZero(t *testing.T) {
	corrupt := func(v any) {
		if c, ok := v.(*nanoxbar.TechComparison); ok {
			c.Lattice.Rows++
		}
	}
	var out, errs bytes.Buffer
	code := run(context.Background(), []string{"-workload", "synth-cold", "-seconds", "0.05", "-short"}, &out, &errs, corrupt)
	if code != 1 {
		t.Fatalf("exit %d with a corrupted output, want 1", code)
	}
	if res := lastResult(t, &out); res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-workload", "synth-cold", "-trace", "2"}} {
		var out, errs bytes.Buffer
		if code := run(context.Background(), args, &out, &errs, nil); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}
