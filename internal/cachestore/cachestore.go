// Package cachestore persists the engine's synthesis cache across
// process restarts. The paper's defect-unaware flow (Fig. 6) synthesizes
// one function and re-maps it across many dies, so a serving daemon that
// restarts cold re-pays the most expensive step — synthesis — for every
// function it had already answered. A snapshot fixes that: the daemon
// writes its completed cache slots to disk and reloads them at boot,
// answering previously-synthesized functions with pure cache hits.
//
// Format: a gzip stream of newline-delimited JSON. The first line is a
// header carrying a magic string, a format version, and the synthesis
// fingerprint (core.Fingerprint) of the writer; each following line is
// one cache entry — the canonical cache key plus a structural encoding
// of the Implementation. Readers reject snapshots whose magic, version,
// or fingerprint do not match: a snapshot written by a different
// synthesis implementation must never seed a cache, because its keys and
// results both encode the old behavior.
//
// Two-terminal implementations (diode, FET) are stored as their SOP
// covers and rebuilt deterministically through the xbar2t constructors;
// four-terminal implementations additionally store the lattice sites,
// which the dual/P-circuit/D-reduce search does not reproduce cheaply.
package cachestore

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nanoxbar/internal/core"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/xbar2t"
)

// Magic identifies a cache snapshot stream.
const Magic = "nanoxbar-cache-snapshot"

// Version is bumped on incompatible changes to the entry encoding.
const Version = 1

// ErrFingerprintMismatch reports a structurally valid snapshot written
// by a different synthesis implementation. Callers start cold.
var ErrFingerprintMismatch = errors.New("cachestore: snapshot fingerprint does not match this binary")

// Entry is one persisted cache slot.
type Entry struct {
	Key string
	Imp *core.Implementation
}

// header is the first NDJSON line of a snapshot.
type header struct {
	Magic       string `json:"magic"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Entries     int    `json:"entries"`
}

// wireCube mirrors cube.Cube with stable JSON names.
type wireCube struct {
	Pos uint64 `json:"p"`
	Neg uint64 `json:"n,omitempty"`
}

// wireSite is one lattice crosspoint: kind, variable, negation.
type wireSite struct {
	Kind uint8 `json:"k"`
	Var  int   `json:"v,omitempty"`
	Neg  bool  `json:"neg,omitempty"`
}

// wireLattice stores the four-terminal array row-major.
type wireLattice struct {
	R     int        `json:"r"`
	C     int        `json:"c"`
	Sites []wireSite `json:"sites"`
}

// wireImp is the structural encoding of a core.Implementation.
type wireImp struct {
	Tech      string       `json:"tech"`
	Rows      int          `json:"rows"`
	Cols      int          `json:"cols"`
	Method    string       `json:"method"`
	FCover    []wireCube   `json:"f_cover"`
	DualCover []wireCube   `json:"dual_cover,omitempty"`
	Lattice   *wireLattice `json:"lattice,omitempty"`
}

// wireEntry is one NDJSON entry line.
type wireEntry struct {
	Key string  `json:"key"`
	Imp wireImp `json:"imp"`
}

func encodeCover(c cube.Cover) []wireCube {
	out := make([]wireCube, len(c))
	for i, cb := range c {
		out[i] = wireCube{Pos: cb.Pos, Neg: cb.Neg}
	}
	return out
}

func decodeCover(w []wireCube) cube.Cover {
	out := make(cube.Cover, len(w))
	for i, cb := range w {
		out[i] = cube.Cube{Pos: cb.Pos, Neg: cb.Neg}
	}
	return out
}

// encodeImp flattens an implementation into its wire form.
func encodeImp(im *core.Implementation) (wireImp, error) {
	w := wireImp{
		Tech:      im.Tech.String(),
		Rows:      im.Rows,
		Cols:      im.Cols,
		Method:    im.Method,
		FCover:    encodeCover(im.FCover),
		DualCover: encodeCover(im.DualCover),
	}
	if im.Tech == core.FourTerminal {
		if im.Lattice == nil {
			return w, fmt.Errorf("cachestore: four-terminal implementation without lattice")
		}
		l := &wireLattice{R: im.Lattice.R, C: im.Lattice.C, Sites: make([]wireSite, 0, im.Lattice.R*im.Lattice.C)}
		for r := 0; r < im.Lattice.R; r++ {
			for c := 0; c < im.Lattice.C; c++ {
				s := im.Lattice.At(r, c)
				l.Sites = append(l.Sites, wireSite{Kind: uint8(s.Kind), Var: s.Var, Neg: s.Neg})
			}
		}
		w.Lattice = l
	}
	return w, nil
}

// decodeImp rebuilds an implementation, re-deriving the crossbar arrays
// from the persisted covers (diode, FET) or lattice sites (4T). The
// entry's rows and cols must be the rebuilt array's: a snapshot crosses
// a trust boundary, and a claimed shape is served as the entry's size.
func decodeImp(w wireImp) (*core.Implementation, error) {
	tech, err := core.ParseTechnology(w.Tech)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	im := &core.Implementation{
		Tech:      tech,
		Rows:      w.Rows,
		Cols:      w.Cols,
		Method:    w.Method,
		FCover:    decodeCover(w.FCover),
		DualCover: decodeCover(w.DualCover),
	}
	var rows, cols int
	switch tech {
	case core.Diode:
		im.DiodeA = xbar2t.NewDiodeArray(im.FCover)
		rows, cols = im.DiodeA.Rows(), im.DiodeA.Cols()
	case core.FET:
		im.FETA = xbar2t.NewFETArray(im.FCover, im.DualCover)
		s := xbar2t.FormulaSizes(im.FCover, im.DualCover)
		rows, cols = s.FETRows, s.FETCols
	case core.FourTerminal:
		wl := w.Lattice
		if wl == nil {
			return nil, fmt.Errorf("cachestore: four-terminal entry without lattice")
		}
		// Divide rather than multiply: R·C wraps for large R and C.
		if wl.R < 1 || wl.C < 1 || len(wl.Sites)%wl.C != 0 || len(wl.Sites)/wl.C != wl.R {
			return nil, fmt.Errorf("cachestore: lattice shape %d×%d does not match %d sites", wl.R, wl.C, len(wl.Sites))
		}
		l := lattice.New(wl.R, wl.C)
		for i, s := range wl.Sites {
			if s.Kind > uint8(lattice.LiteralSite) {
				return nil, fmt.Errorf("cachestore: bad site kind %d at index %d", s.Kind, i)
			}
			if s.Kind == uint8(lattice.LiteralSite) && (s.Var < 0 || s.Var >= 64) {
				return nil, fmt.Errorf("cachestore: site variable %d out of range at index %d", s.Var, i)
			}
			l.Set(i/wl.C, i%wl.C, lattice.Site{Kind: lattice.SiteKind(s.Kind), Var: s.Var, Neg: s.Neg})
		}
		im.Lattice = l
		rows, cols = wl.R, wl.C
	}
	if w.Rows != rows || w.Cols != cols {
		return nil, fmt.Errorf("cachestore: entry claims shape %d×%d, its array is %d×%d", w.Rows, w.Cols, rows, cols)
	}
	return im, nil
}

// Write streams a snapshot of the entries to w, stamped with the given
// synthesis fingerprint.
func Write(w io.Writer, fingerprint string, entries []Entry) error {
	zw := gzip.NewWriter(w)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(header{Magic: Magic, Version: Version, Fingerprint: fingerprint, Entries: len(entries)}); err != nil {
		return fmt.Errorf("cachestore: write header: %w", err)
	}
	for _, e := range entries {
		if e.Key == "" || e.Imp == nil {
			return fmt.Errorf("cachestore: refusing to write empty entry (key=%q)", e.Key)
		}
		wi, err := encodeImp(e.Imp)
		if err != nil {
			return err
		}
		if err := enc.Encode(wireEntry{Key: e.Key, Imp: wi}); err != nil {
			return fmt.Errorf("cachestore: write entry: %w", err)
		}
	}
	return zw.Close()
}

// Read decodes a snapshot stream, returning the writer's fingerprint
// and the entries. wantFingerprint, when non-empty, must match the
// header's or Read fails with ErrFingerprintMismatch before decoding
// any entry.
func Read(r io.Reader, wantFingerprint string) (string, []Entry, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return "", nil, fmt.Errorf("cachestore: not a snapshot (gzip): %w", err)
	}
	defer zr.Close()
	dec := json.NewDecoder(bufio.NewReader(zr))
	var h header
	if err := dec.Decode(&h); err != nil {
		return "", nil, fmt.Errorf("cachestore: read header: %w", err)
	}
	if h.Magic != Magic {
		return "", nil, fmt.Errorf("cachestore: bad magic %q", h.Magic)
	}
	if h.Version != Version {
		return "", nil, fmt.Errorf("cachestore: snapshot version %d, this binary reads %d", h.Version, Version)
	}
	if wantFingerprint != "" && h.Fingerprint != wantFingerprint {
		return h.Fingerprint, nil, fmt.Errorf("%w: snapshot %q, binary %q", ErrFingerprintMismatch, h.Fingerprint, wantFingerprint)
	}
	if h.Entries < 0 {
		return h.Fingerprint, nil, fmt.Errorf("cachestore: negative entry count %d", h.Entries)
	}
	// Preallocate from the header only within reason: a corrupt count
	// must not drive the allocation, entries are still bounds-checked
	// against it after the read.
	prealloc := h.Entries
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	entries := make([]Entry, 0, prealloc)
	for {
		var we wireEntry
		if err := dec.Decode(&we); err == io.EOF {
			break
		} else if err != nil {
			return h.Fingerprint, nil, fmt.Errorf("cachestore: read entry %d: %w", len(entries), err)
		}
		if we.Key == "" {
			return h.Fingerprint, nil, fmt.Errorf("cachestore: entry %d has empty key", len(entries))
		}
		im, err := decodeImp(we.Imp)
		if err != nil {
			return h.Fingerprint, nil, fmt.Errorf("cachestore: entry %d: %w", len(entries), err)
		}
		entries = append(entries, Entry{Key: we.Key, Imp: im})
	}
	if h.Entries != len(entries) {
		return h.Fingerprint, nil, fmt.Errorf("cachestore: truncated snapshot: header says %d entries, read %d", h.Entries, len(entries))
	}
	return h.Fingerprint, entries, nil
}

// Save writes the snapshot atomically: a temp file in the target
// directory, fsync'd, then renamed over path. A crash mid-save leaves
// the previous snapshot intact.
func Save(path, fingerprint string, entries []Entry) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cachestore: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := Write(tmp, fingerprint, entries); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cachestore: save: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cachestore: save: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cachestore: save: rename: %w", err)
	}
	// Sweep temp files abandoned by saves that died before their rename
	// (kill -9 mid-checkpoint): without this every crash leaks one. Our
	// own temp is already renamed away, so anything still matching is
	// stale. Saves to one path are serialized by the caller, so no live
	// writer loses its file here.
	if stale, err := filepath.Glob(path + ".tmp-*"); err == nil {
		for _, s := range stale {
			_ = os.Remove(s)
		}
	}
	return nil
}

// Load reads the snapshot at path, enforcing the fingerprint match.
func Load(path, wantFingerprint string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cachestore: load: %w", err)
	}
	defer f.Close()
	_, entries, err := Read(f, wantFingerprint)
	return entries, err
}
