package cachestore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"nanoxbar/internal/core"
	"nanoxbar/internal/truthtab"
)

// synthAll synthesizes f on every technology and returns the entries a
// cache holding them would snapshot.
func synthAll(t testing.TB, f truthtab.TT) []Entry {
	t.Helper()
	opts := core.DefaultOptions()
	var entries []Entry
	for _, tech := range []core.Technology{core.Diode, core.FET, core.FourTerminal} {
		im, err := core.Synthesize(f, tech, opts)
		if err != nil {
			t.Fatalf("synthesize %v: %v", tech, err)
		}
		entries = append(entries, Entry{Key: core.CacheKey(f, tech, opts), Imp: im})
	}
	return entries
}

func TestRoundTripAllTechnologies(t *testing.T) {
	f, err := truthtab.Parse("3:0x96") // 3-input XOR
	if err != nil {
		t.Fatal(err)
	}
	entries := synthAll(t, f)

	var buf bytes.Buffer
	if err := Write(&buf, core.Fingerprint(), entries); err != nil {
		t.Fatalf("write: %v", err)
	}
	fp, got, err := Read(bytes.NewReader(buf.Bytes()), core.Fingerprint())
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if fp != core.Fingerprint() {
		t.Fatalf("fingerprint %q, want %q", fp, core.Fingerprint())
	}
	if len(got) != len(entries) {
		t.Fatalf("read %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		want := entries[i]
		if e.Key != want.Key {
			t.Fatalf("entry %d key %q, want %q", i, e.Key, want.Key)
		}
		im := e.Imp
		if im.Tech != want.Imp.Tech || im.Rows != want.Imp.Rows || im.Cols != want.Imp.Cols || im.Method != want.Imp.Method {
			t.Fatalf("entry %d mismatch: got %v %dx%d %q, want %v %dx%d %q",
				i, im.Tech, im.Rows, im.Cols, im.Method,
				want.Imp.Tech, want.Imp.Rows, want.Imp.Cols, want.Imp.Method)
		}
		// The decisive check: the rebuilt array still computes f.
		if !im.Verify(f) {
			t.Fatalf("entry %d (%v): decoded implementation does not compute f", i, im.Tech)
		}
		// And it maps like the original (ToApp exercises the rebuilt
		// arrays for every technology).
		a, b := im.ToApp(), want.Imp.ToApp()
		if a.R != b.R || a.C != b.C {
			t.Fatalf("entry %d: rebuilt app %dx%d, want %dx%d", i, a.R, a.C, b.R, b.C)
		}
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	f, _ := truthtab.Parse("2:0x6")
	entries := synthAll(t, f)
	var buf bytes.Buffer
	if err := Write(&buf, "some-other-synthesizer/99", entries); err != nil {
		t.Fatal(err)
	}
	_, _, err := Read(bytes.NewReader(buf.Bytes()), core.Fingerprint())
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
	// Without an expectation the snapshot reads fine — the caller opted
	// out of the check.
	if _, _, err := Read(bytes.NewReader(buf.Bytes()), ""); err != nil {
		t.Fatalf("fingerprint-agnostic read: %v", err)
	}
}

func TestBadMagicAndVersionRejected(t *testing.T) {
	write := func(h header) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if err := json.NewEncoder(zw).Encode(h); err != nil {
			t.Fatal(err)
		}
		zw.Close()
		return buf.Bytes()
	}
	if _, _, err := Read(bytes.NewReader(write(header{Magic: "nope", Version: Version})), ""); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	if _, _, err := Read(bytes.NewReader(write(header{Magic: Magic, Version: Version + 1})), ""); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: err = %v", err)
	}
	if _, _, err := Read(bytes.NewReader([]byte("not gzip at all")), ""); err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Fatalf("not gzip: err = %v", err)
	}
	// Corrupt entry counts must error, not drive allocation (a negative
	// or huge count previously panicked in make).
	if _, _, err := Read(bytes.NewReader(write(header{Magic: Magic, Version: Version, Entries: -1})), ""); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative entries: err = %v", err)
	}
	if _, _, err := Read(bytes.NewReader(write(header{Magic: Magic, Version: Version, Entries: 1 << 40})), ""); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("huge entry count: err = %v", err)
	}
}

func TestTruncatedSnapshotRejected(t *testing.T) {
	f, _ := truthtab.Parse("3:0x96")
	entries := synthAll(t, f)
	var buf bytes.Buffer
	// Header promises more entries than the stream carries.
	zw := gzip.NewWriter(&buf)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(header{Magic: Magic, Version: Version, Fingerprint: "fp", Entries: len(entries) + 1}); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		wi, err := encodeImp(e.Imp)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(wireEntry{Key: e.Key, Imp: wi}); err != nil {
			t.Fatal(err)
		}
	}
	zw.Close()
	if _, _, err := Read(bytes.NewReader(buf.Bytes()), ""); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated: err = %v", err)
	}
}

// ndjson encodes a header and entry lines as a snapshot's stream
// before compression.
func ndjson(t testing.TB, h header, entries ...wireEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// gzipped compresses b as Write does.
func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

// oneEntry is a snapshot stream of a single entry under key "k".
func oneEntry(t testing.TB, imp wireImp) []byte {
	return ndjson(t, header{Magic: Magic, Version: Version, Entries: 1}, wireEntry{Key: "k", Imp: imp})
}

func TestCorruptEntriesRejected(t *testing.T) {
	cases := []struct {
		name string
		imp  wireImp
		want string
	}{
		{"unknown tech", wireImp{Tech: "quantum"}, "technology"},
		{"4t without lattice", wireImp{Tech: "lattice", Rows: 2, Cols: 2}, "without lattice"},
		{"shape mismatch", wireImp{Tech: "lattice", Lattice: &wireLattice{R: 2, C: 2, Sites: make([]wireSite, 3)}}, "sites"},
		{"bad site kind", wireImp{Tech: "lattice", Lattice: &wireLattice{R: 1, C: 1, Sites: []wireSite{{Kind: 9}}}}, "site kind"},
		{"bad site var", wireImp{Tech: "lattice", Lattice: &wireLattice{R: 1, C: 1, Sites: []wireSite{{Kind: 2, Var: 77}}}}, "variable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Read(bytes.NewReader(gzipped(oneEntry(t, tc.imp))), "")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// hostileShapes are entries whose claimed shape is not their array's.
// Each would be served with the claimed shape and area; the first
// Implementation.App() on the overflowing lattice asks for a 2^64-cell
// matrix.
var hostileShapes = []struct {
	name string
	imp  wireImp
	want string
}{
	{"lattice shape overflows", wireImp{Tech: "lattice", Rows: 1 << 32, Cols: 1 << 32,
		Lattice: &wireLattice{R: 1 << 32, C: 1 << 32, Sites: []wireSite{}}}, "does not match"},
	{"diode claims 1000000x7 over 1x5", wireImp{Tech: "diode", Rows: 1_000_000, Cols: 7,
		FCover: []wireCube{{Pos: 0b0011, Neg: 0b1100}}}, "claims shape"},
	{"lattice claims 1x1 over 2x2", wireImp{Tech: "lattice", Rows: 1, Cols: 1,
		Lattice: &wireLattice{R: 2, C: 2, Sites: make([]wireSite, 4)}}, "claims shape"},
}

// TestHostileShapesRejected: Read refuses every hostile shape. It never
// calls App on what it decodes.
func TestHostileShapesRejected(t *testing.T) {
	for _, tc := range hostileShapes {
		t.Run(tc.name, func(t *testing.T) {
			_, entries, err := Read(bytes.NewReader(gzipped(oneEntry(t, tc.imp))), "")
			if err == nil || !strings.Contains(err.Error(), tc.want) || entries != nil {
				t.Fatalf("Read = %d entries, err %v; want no entries and an error naming %q", len(entries), err, tc.want)
			}
		})
	}
}

func TestSaveLoadFile(t *testing.T) {
	f, _ := truthtab.Parse("3:0xe8") // maj3
	entries := synthAll(t, f)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := Save(path, core.Fingerprint(), entries); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path, core.Fingerprint())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if !e.Imp.Verify(f) {
			t.Fatalf("entry %d does not verify after file round trip", i)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.snap"), ""); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}
