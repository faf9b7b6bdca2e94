// Command xbarbench is the repository benchmark. It runs one workload
// for a fixed wall-clock budget, checks every output, prints each metric
// as "metric <name> <value> <unit>", and ends with one JSON line:
//
//	{"correct": true, "attempted": 1200, "failed": 0,
//	 "metrics": {"cpu_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Usage (bench/run.sh builds it and passes the flags through):
//
//	xbarbench -workload synth-cold|yield-sweep|serve-hot|serve-churn|all
//	          -seed N -seconds S -trace 0|1 [-out r.json] [-short]
//
// -trace 1 prints the per-layer metrics instead of the end-to-end ones
// and, at exit, writes the run's spans to .bench_build/spans-<workload>.json
// under the working directory; -short shrinks the inputs to smoke-test
// size. -workload all runs each workload in its own process, so peak
// memory is per workload. The process runs on one P. The exit status
// is 1 when any output was wrong or any operation failed, and 2 when
// the run could not be carried out (no result line is printed).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"nanoxbar/bench/trace"
	"nanoxbar/bench/workload"
)

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The end-to-end metrics are CPU times. With two Ps, the P left idle
	// whenever client and server hand a request over spins looking for
	// work: on the reference VM that spinning was a third to a half of a
	// serving request's CPU time and moved by ±25% with the host's load.
	// One P leaves the work itself.
	runtime.GOMAXPROCS(1)
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run executes the command line and returns the exit status. corrupt,
// when set, becomes the workload's Corrupt hook.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, corrupt func(any)) int {
	fs := flag.NewFlagSet("xbarbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workload.Names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured wall-clock budget per run")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics and writing its spans under "+spansDir)
	out := fs.String("out", "", "also write the result JSON to this file")
	short := fs.Bool("short", false, "smoke-test input sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "xbarbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *name == "all" {
		child := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*traced), "-short=" + strconv.FormatBool(*short)}
		return runAll(ctx, child, stdout, stderr, *out)
	}
	cfg := workload.Config{Seed: *seed, Seconds: *seconds, Short: *short, Corrupt: corrupt}
	if *traced == 1 {
		cfg.Spans = trace.New()
	}
	rep, err := workload.Run(ctx, *name, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "xbarbench:", err)
		return 2
	}
	res := toResult(rep)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *traced)
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "xbarbench: failed:", e)
	}
	fmt.Fprintf(stdout, "attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, m := range rep.Specs {
		fmt.Fprintf(stdout, "metric %s %s %s\n", m.Name, strconv.FormatFloat(res.Metrics[m.Name].Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "xbarbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err := writeFiles(*out, line, cfg.Spans, *name); err != nil {
		fmt.Fprintln(stderr, "xbarbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// toResult projects a report onto the result line. A metric that is not
// a finite number fails the run.
func toResult(rep *workload.Report) result {
	res := result{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metric)}
	for _, m := range rep.Specs {
		v := rep.Values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Failed++
			v = 0
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// spansDir holds a traced run's spans, relative to the working
// directory: the benchmark's build directory, which .gitignore names.
const spansDir = ".bench_build"

// spansPath is where a traced run of the workload writes its spans.
func spansPath(name string) string { return filepath.Join(spansDir, "spans-"+name+".json") }

// writeFiles writes the result line to out, when given, and a traced
// run's spans to spansPath(name).
func writeFiles(out string, line []byte, rec *trace.Recorder, name string) error {
	if out != "" {
		if err := os.WriteFile(out, append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rec == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(spansPath(name), buf.Bytes(), 0o644)
}

// runAll runs every workload in a child process of this binary with the
// child flags, echoing each child's output. out collects the children's
// result lines into one JSON object keyed by workload.
func runAll(ctx context.Context, child []string, stdout, stderr io.Writer, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "xbarbench:", err)
		return 2
	}
	code := 0
	all := make(map[string]json.RawMessage)
	for _, name := range workload.Names {
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, self, append([]string{"-workload", name}, child...)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			c := 2
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				c = ee.ExitCode()
			}
			code = max(code, c)
		}
		var last string
		for sc := bufio.NewScanner(&buf); sc.Scan(); {
			last = sc.Text()
		}
		if json.Valid([]byte(last)) {
			all[name] = json.RawMessage(last)
		}
	}
	if out != "" {
		b, err := json.Marshal(all)
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "xbarbench:", err)
			return 2
		}
	}
	return code
}
