// Package benchreport defines the machine-readable benchmark report the
// repository tracks in-tree (BENCH_lattice.json), the parser that builds
// it from `go test -bench` output, and the comparison logic behind the
// CI perf-regression gate. cmd/benchjson emits and compares reports.
package benchreport

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	Pkg        string  `json:"pkg"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are present when the suite ran -benchmem
	// (always, here) and the bench reports allocations.
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // b.ReportMetric extras
}

// ID identifies a benchmark across reports.
func (b Benchmark) ID() string { return b.Pkg + "." + b.Name }

// Report is the emitted JSON document.
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	CPU         string      `json:"cpu,omitempty"`
	Benchtime   string      `json:"benchtime"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	// Notes carries caveats on how to read rows, keyed by benchmark ID:
	// the committed baseline says which rows were re-recorded on which
	// machine.
	Notes map[string]string `json:"notes,omitempty"`
}

// Load reads a report file.
func Load(path string) (Report, error) {
	var rep Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("benchreport: %w", err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("benchreport: parse %s: %w", path, err)
	}
	return rep, nil
}

// WriteFile renders the report as indented JSON to path, or to stdout
// when path is "-".
func WriteFile(path string, rep Report) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("benchreport: %w", err)
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// ParseGoBench scans standard `go test -bench` text: "pkg:" and "cpu:"
// header lines, then one line per benchmark of the form
//
//	BenchmarkName-8   1203   9876 ns/op   120 B/op   3 allocs/op   42.0 custom/metric
//
// with an iteration count followed by (value, unit) pairs. Parsed
// benchmarks are appended to rep.Benchmarks; the trailing -GOMAXPROCS
// suffix is stripped so reports from differently-sized machines compare.
func ParseGoBench(raw string, rep *Report) {
	pkg := ""
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Pkg: pkg, Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				v := int64(val)
				b.BytesPerOp = &v
			case "allocs/op":
				v := int64(val)
				b.AllocsPerOp = &v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
}
