package cachestore

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"nanoxbar/internal/core"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/xbar2t"
)

// FuzzReadSnapshot feeds Read gzipped NDJSON, the form of -cache-load
// files, peer warm-start snapshots and one-entry peer fills, so
// mutations reach the entry decoder. Read must never panic, must return
// no entries with an error, and every entry it accepts must have its
// rebuilt array's shape and survive a Write/Read round trip with the
// same key and shape.
func FuzzReadSnapshot(f *testing.F) {
	tt, err := truthtab.Parse("3:0x96")
	if err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := Write(&snap, "fp", synthAll(f, tt)); err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(&snap)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)                 // one diode, one FET and one lattice entry
	f.Add(valid[:len(valid)-20]) // truncated inside the last entry
	recount := bytes.Replace(valid, []byte(`"entries":3`), []byte(`"entries":4`), 1)
	if bytes.Equal(recount, valid) {
		f.Fatal("seed header lacks its entry count")
	}
	f.Add(recount)
	for _, h := range hostileShapes {
		f.Add(oneEntry(f, h.imp))
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		_, entries, err := Read(bytes.NewReader(gzipped(stream)), "")
		if err != nil {
			if entries != nil {
				t.Fatalf("Read failed (%v) yet returned %d entries", err, len(entries))
			}
			return
		}
		for i, e := range entries {
			rows, cols := rebuiltShape(t, len(stream), e.Imp)
			if e.Imp.Rows != rows || e.Imp.Cols != cols {
				t.Fatalf("entry %d (%v) claims %d×%d over a %d×%d array", i, e.Imp.Tech, e.Imp.Rows, e.Imp.Cols, rows, cols)
			}
		}
		// Rereading checks each lattice's R·C sites against its shape.
		var out bytes.Buffer
		if err := Write(&out, "fp", entries); err != nil {
			t.Fatalf("writing %d accepted entries: %v", len(entries), err)
		}
		_, again, err := Read(&out, "fp")
		if err != nil {
			t.Fatalf("reading back %d accepted entries: %v", len(entries), err)
		}
		if len(again) != len(entries) {
			t.Fatalf("read back %d entries, wrote %d", len(again), len(entries))
		}
		for i, e := range again {
			w := entries[i]
			if e.Key != w.Key || e.Imp.Tech != w.Imp.Tech || e.Imp.Rows != w.Imp.Rows || e.Imp.Cols != w.Imp.Cols {
				t.Fatalf("entry %d read back as %q %v %d×%d, wrote %q %v %d×%d", i,
					e.Key, e.Imp.Tech, e.Imp.Rows, e.Imp.Cols, w.Key, w.Imp.Tech, w.Imp.Rows, w.Imp.Cols)
			}
		}
	})
}

// rebuiltShape is the shape of im's rebuilt array. A lattice's sites
// each cost input bytes, so one with more sites than its stream had
// bytes was not decoded from that stream.
func rebuiltShape(t *testing.T, streamLen int, im *core.Implementation) (rows, cols int) {
	switch im.Tech {
	case core.Diode:
		return im.DiodeA.Rows(), im.DiodeA.Cols()
	case core.FET:
		s := xbar2t.FormulaSizes(im.FCover, im.DualCover)
		return s.FETRows, s.FETCols
	}
	l := im.Lattice
	if l.R < 1 || l.C < 1 || l.C > streamLen/l.R {
		t.Fatalf("lattice %d×%d decoded from %d bytes", l.R, l.C, streamLen)
	}
	return l.R, l.C
}
