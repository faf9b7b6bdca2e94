package core

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/truthtab"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current synthesis (refused unless synthVersion changed)")

const goldenPath = "testdata/golden.txt"

// goldenInputs is the corpus: the benchfn suite, then seeded random
// functions of 2–6 variables (constants and functions that ignore some
// of their variables included, as the draw gives them).
func goldenInputs() []benchfn.Spec {
	in := benchfn.Suite()
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100; k++ {
		n := 2 + rng.Intn(5)
		f := truthtab.FromFunc(n, func(uint64) bool { return rng.Intn(2) == 1 })
		in = append(in, benchfn.Spec{Name: fmt.Sprintf("rnd%d_%d", n, k), F: f})
	}
	return in
}

// goldenLine renders everything an implementation is made of: the
// technology, the method, the dimensions, both covers and, for
// lattices, every site row by row.
func goldenLine(call string, im *Implementation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %v %s %dx%d f=%v d=%v", call, im.Tech, im.Method, im.Rows, im.Cols, im.FCover, im.DualCover)
	if l := im.Lattice; l != nil {
		sb.WriteString(" sites=")
		for r := 0; r < l.R; r++ {
			if r > 0 {
				sb.WriteByte('/')
			}
			for c := 0; c < l.C; c++ {
				if c > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(l.At(r, c).String())
			}
		}
	}
	return sb.String()
}

// goldenRecord synthesizes one function through CompareTechnologies and
// through each single-technology Synthesize.
func goldenRecord(t *testing.T, s benchfn.Spec) []string {
	opts := DefaultOptions()
	lines := []string{fmt.Sprintf("# %s %v", s.Name, s.F)}
	c, err := CompareTechnologies(s.F, opts)
	if err != nil {
		t.Fatalf("%s: compare: %v", s.Name, err)
	}
	for _, im := range []*Implementation{c.Diode, c.FET, c.Lattice} {
		lines = append(lines, goldenLine("compare", im))
	}
	for _, tech := range []Technology{Diode, FET, FourTerminal} {
		im, err := Synthesize(s.F, tech, opts)
		if err != nil {
			t.Fatalf("%s: %v: %v", s.Name, tech, err)
		}
		lines = append(lines, goldenLine("single", im))
	}
	return lines
}

// goldenHeader heads the corpus; the test fails when it names a
// different version than synthVersion.
const goldenHeader = "synthVersion "

// readGolden returns the corpus's header version and outcome lines.
func readGolden() (int, []string, error) {
	fh, err := os.Open(goldenPath)
	if err != nil {
		return 0, nil, err
	}
	defer fh.Close()
	var lines []string
	sc := bufio.NewScanner(fh)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[0], goldenHeader) {
		return 0, nil, fmt.Errorf("%s: first line must be %q followed by the version", goldenPath, goldenHeader)
	}
	v, err := strconv.Atoi(strings.TrimPrefix(lines[0], goldenHeader))
	if err != nil {
		return 0, nil, fmt.Errorf("%s: header: %v", goldenPath, err)
	}
	return v, lines[1:], nil
}

// TestGoldenImplementations pins every synthesized implementation —
// method, dimensions, covers and lattice sites — on a fixed corpus.
// Cache keys and on-disk snapshots carry Fingerprint(), whose version
// must change whenever this file would: the corpus is headed by
// synthVersion, and -update refuses to write changed lines under an
// unchanged version.
func TestGoldenImplementations(t *testing.T) {
	var got []string
	for _, s := range goldenInputs() {
		got = append(got, goldenRecord(t, s)...)
	}
	version, want, err := readGolden()
	if *update {
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		if err == nil && version == synthVersion && !slices.Equal(got, want) {
			t.Fatalf("implementations changed under unchanged synthVersion %d: bump it before regenerating %s", synthVersion, goldenPath)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("%s%d\n%s\n", goldenHeader, synthVersion, strings.Join(got, "\n"))
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if version != synthVersion {
		t.Fatalf("%s is synthVersion %d, the code is %d: regenerate with -update", goldenPath, version, synthVersion)
	}
	if len(got) != len(want) {
		t.Fatalf("golden corpus has %d lines, synthesis produced %d", len(want), len(got))
	}
	fn, bad := "", 0
	for i := range got {
		if strings.HasPrefix(want[i], "# ") {
			fn = want[i]
		}
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("%s\n got: %s\nwant: %s", fn, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden lines differ", bad, len(got))
	}
}
