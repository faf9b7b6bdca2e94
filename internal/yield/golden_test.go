package yield

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current fault path (refused unless FaultVersion changed)")

const goldenPath = "testdata/golden.txt"

// goldenHeader heads the corpus; the test fails when it names a
// different version than FaultVersion.
const goldenHeader = "faultVersion "

// goldenShape is an application and the die it is placed on: a tight
// die with one candidate and few spare lines, and a die wider than one
// 64-line word with a full candidate schedule.
type goldenShape struct {
	name string
	app  *bism.App
	chip int
}

func goldenShapes() []goldenShape {
	return []goldenShape{
		{"4x6/9", bism.RandomApp(4, 6, 0.5, rand.New(rand.NewSource(17))), 9},
		{"6x4/70", bism.RandomApp(6, 4, 0.5, rand.New(rand.NewSource(23))), 70},
	}
}

var (
	goldenSchemes   = []bism.Mapper{bism.Blind{}, bism.Greedy{}, bism.Hybrid{}}
	goldenDensities = []float64{0.02, 0.08, 0.2}
)

const (
	goldenDies     = 130 // two full lane groups and a two-die tail
	goldenAttempts = 40
	goldenMapDies  = 64  // seeds per single-chip map line
	goldenMapTries = 200 // the engine's default budget
)

// goldenLine summarizes a run of die outcomes: the aggregate counts, a
// hash over the fast dies alone, and one hash per 64-die group over
// every die's index, fast flag, success, Stats and mapping.
func goldenLine(key string, dies []DieResult) string {
	fast, ok, cfg, bist, bisd := 0, 0, 0, 0, 0
	fh := fnv.New64a()
	var groups []string
	gh := fnv.New64a()
	for i, dr := range dies {
		rec := fmt.Sprintf("%d %t %t %d %d %d", dr.Die, dr.Fast, dr.Stats.Success, dr.Stats.Configs, dr.Stats.BISTCalls, dr.Stats.BISDCalls)
		if dr.Mapping != nil {
			rec += fmt.Sprintf(" %v %v", dr.Mapping.Rows, dr.Mapping.Cols)
		}
		rec += ";"
		gh.Write([]byte(rec))
		if dr.Fast {
			fast++
			fh.Write([]byte(rec))
		}
		if dr.Stats.Success {
			ok++
		}
		cfg += dr.Stats.Configs
		bist += dr.Stats.BISTCalls
		bisd += dr.Stats.BISDCalls
		if i%64 == 63 || i == len(dies)-1 {
			groups = append(groups, fmt.Sprintf("%016x", gh.Sum64()))
			gh.Reset()
		}
	}
	return fmt.Sprintf("%s fast=%d ok=%d cfg=%d bist=%d bisd=%d fasth=%016x g=%s",
		key, fast, ok, cfg, bist, bisd, fh.Sum64(), strings.Join(groups, ","))
}

// addWireFaults breaks each row and each column of m, and bridges each
// adjacent pair of rows and of columns, independently with the given
// probabilities, drawing from rng after the die's crosspoints. Random
// dies carry crosspoint defects only; an explicit chip on a map request
// is how wire faults reach the mappers, and this stands in for one.
func addWireFaults(m *defect.Map, rng *rand.Rand, rowBreak, colBreak, rowBridge, colBridge float64) {
	defect.VisitBernoulli(rng, rowBreak, m.R, func(i int) { m.SetRowBroken(i, true) })
	defect.VisitBernoulli(rng, colBreak, m.C, func(i int) { m.SetColBroken(i, true) })
	defect.VisitBernoulli(rng, rowBridge, m.R-1, func(i int) { m.SetRowBridge(i, true) })
	defect.VisitBernoulli(rng, colBridge, m.C-1, func(i int) { m.SetColBridge(i, true) })
}

// goldenCorpus runs the fault path over the corpus: lane-runner sweeps
// of uniform crosspoint defects over scheme × density × shape × seed,
// then single-chip maps drawn the way the engine's map requests draw
// them (seed the source, draw the whole die with defect.Random, map on
// the same stream), and the same maps again with each line broken and
// each adjacent pair bridged at a quarter of the density.
func goldenCorpus(t *testing.T) []string {
	var lines []string
	shapes := goldenShapes()
	for _, scheme := range goldenSchemes {
		for _, d := range goldenDensities {
			for _, sh := range shapes {
				for _, seed := range []int64{1, 2} {
					spec := Spec{
						App: sh.app, Scheme: scheme, ChipSize: sh.chip,
						Params: defect.UniformCrosspoint(d), Dies: goldenDies, Seed: seed,
						MaxAttempts: goldenAttempts, Parallel: 2,
					}
					dies := make([]DieResult, spec.Dies)
					if err := (LaneRunner{}).Run(context.Background(), spec, func(dr DieResult) { dies[dr.Die] = dr }); err != nil {
						t.Fatal(err)
					}
					for _, dr := range dies {
						if dr.Err != nil {
							t.Fatalf("%s d=%v %s seed=%d die %d: %v", scheme.Name(), d, sh.name, seed, dr.Die, dr.Err)
						}
					}
					key := fmt.Sprintf("sweep %s uniform d=%v %s seed=%d", scheme.Name(), d, sh.name, seed)
					lines = append(lines, goldenLine(key, dies))
				}
			}
		}
	}
	src, rng := xrand.New()
	for _, wires := range []bool{false, true} {
		for _, scheme := range goldenSchemes {
			for _, d := range goldenDensities {
				for _, sh := range shapes {
					for _, seed0 := range []int64{0, 1000} {
						dies := make([]DieResult, goldenMapDies)
						for i := range dies {
							src.Seed(seed0 + int64(i))
							chip := defect.Random(sh.chip, sh.chip, defect.UniformCrosspoint(d), rng)
							if wires {
								addWireFaults(chip, rng, d/4, d/4, d/4, d/4)
							}
							m, st := scheme.Map(bism.NewChip(chip), sh.app, goldenMapTries, rng)
							dies[i] = DieResult{Die: i, Mapping: m, Stats: st}
						}
						key := fmt.Sprintf("map %s d=%v %s seeds=%d+%d", scheme.Name(), d, sh.name, seed0, goldenMapDies)
						if wires {
							key += " wires"
						}
						lines = append(lines, goldenLine(key, dies))
					}
				}
			}
		}
	}
	return lines
}

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

// firstDifference names what differs between two corpus lines of the
// same key: the first 64-die group whose hash changed, else the first
// differing field.
func firstDifference(want, got string) string {
	field := func(line, name string) string {
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, name+"="); ok {
				return v
			}
		}
		return ""
	}
	wg, gg := strings.Split(field(want, "g"), ","), strings.Split(field(got, "g"), ",")
	for i := range min(len(wg), len(gg)) {
		if wg[i] != gg[i] {
			return fmt.Sprintf("first differing group: dies %d–%d", 64*i, 64*i+63)
		}
	}
	wf, gf := strings.Fields(want), strings.Fields(got)
	for i := range min(len(wf), len(gf)) {
		if wf[i] != gf[i] {
			return fmt.Sprintf("first differing field: %s, want %s", gf[i], wf[i])
		}
	}
	return "lines differ in length"
}

// TestGoldenFaultPath pins every die's outcome — success, Stats and
// mapping — on a fixed corpus of lane sweeps and single-chip maps. A
// change that alters any outcome must bump FaultVersion (which /healthz
// reports) and regenerate with -update; -update refuses to write
// changed lines under an unchanged version.
func TestGoldenFaultPath(t *testing.T) {
	got := goldenCorpus(t)
	version, want, err := readGolden()
	if *update {
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		if err == nil && version == FaultVersion && !slices.Equal(got, want) {
			t.Fatalf("outcomes changed under unchanged FaultVersion %d: bump it before regenerating %s", FaultVersion, goldenPath)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("%s%d\n%s\n", goldenHeader, FaultVersion, strings.Join(got, "\n"))
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if version != FaultVersion {
		t.Fatalf("%s is faultVersion %d, the code is %d: regenerate with -update", goldenPath, version, FaultVersion)
	}
	if len(got) != len(want) {
		t.Fatalf("golden corpus has %d lines, the fault path produced %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("line %d: %s\n got: %s\nwant: %s", i+2, firstDifference(want[i], got[i]), got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden lines differ", bad, len(got))
	}
}
