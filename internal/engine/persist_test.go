package engine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// warmupBatch is a batch of synthesize requests spanning several
// functions and technologies — the workload whose synthesis cost a warm
// restart must not re-pay.
func warmupBatch() []Request {
	var reqs []Request
	for _, fn := range []FunctionSpec{
		{Name: "maj3"},
		{TT: "3:0x96"},
		{Expr: "x1x2 + x3x4"},
	} {
		for _, tech := range []string{"diode", "fet", "lattice"} {
			reqs = append(reqs, Request{Kind: KindSynthesize, Function: fn, Tech: tech})
		}
	}
	return reqs
}

// TestWarmRestartServesFromSnapshot is the daemon-restart scenario:
// synthesize a batch, snapshot the cache, start a fresh engine from the
// snapshot, and replay the batch. Every answer must be a cache hit and
// the underlying synthesizer must never run.
func TestWarmRestartServesFromSnapshot(t *testing.T) {
	reqs := warmupBatch()
	path := filepath.Join(t.TempDir(), "cache.snap")

	e1 := New(Config{Workers: 4, CacheSize: 64})
	for i, res := range e1.SubmitBatch(reqs) {
		if !res.Ok() {
			t.Fatalf("warmup request %d failed: %s", i, res.Error)
		}
	}
	n, err := e1.SaveCacheSnapshot(path)
	e1.Close()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if n != len(reqs) {
		t.Fatalf("saved %d entries, want %d", n, len(reqs))
	}

	e2 := New(Config{Workers: 4, CacheSize: 64})
	defer e2.Close()
	loaded, err := e2.LoadCacheSnapshot(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded != n {
		t.Fatalf("loaded %d entries, want %d", loaded, n)
	}
	if st := e2.Stats(); st.CacheLoaded != uint64(n) || st.CacheEntries != n {
		t.Fatalf("stats after load: loaded=%d entries=%d, want %d/%d", st.CacheLoaded, st.CacheEntries, n, n)
	}

	for i, res := range e2.SubmitBatch(reqs) {
		if !res.Ok() {
			t.Fatalf("replayed request %d failed: %s", i, res.Error)
		}
		if !res.Synthesis.CacheHit {
			t.Fatalf("replayed request %d was not a cache hit", i)
		}
	}
	st := e2.Stats()
	if st.SynthCalls != 0 {
		t.Fatalf("warm engine ran %d syntheses, want 0", st.SynthCalls)
	}
	if st.CacheHits != uint64(len(reqs)) || st.CacheMisses != 0 {
		t.Fatalf("hits=%d misses=%d, want %d/0", st.CacheHits, st.CacheMisses, len(reqs))
	}
}

// TestSnapshotStreamRoundTrip exercises the io.Writer/io.Reader pair
// and checks that loading into a non-empty cache is additive.
func TestSnapshotStreamRoundTrip(t *testing.T) {
	e1 := New(Config{Workers: 2, CacheSize: 64})
	reqs := warmupBatch()
	e1.SubmitBatch(reqs)
	var buf bytes.Buffer
	n, err := e1.WriteCacheSnapshot(&buf)
	e1.Close()
	if err != nil || n != len(reqs) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}

	e2 := New(Config{Workers: 2, CacheSize: 64})
	defer e2.Close()
	// Pre-populate one key; the snapshot's copy of it must not count as
	// loaded.
	if res := e2.DoCtx(context.Background(), reqs[0]); !res.Ok() {
		t.Fatalf("pre-populate: %s", res.Error)
	}
	loaded, err := e2.ReadCacheSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if loaded != len(reqs)-1 {
		t.Fatalf("loaded %d entries into warm cache, want %d", loaded, len(reqs)-1)
	}
	st := e2.Stats()
	if st.CacheEntries != len(reqs) {
		t.Fatalf("entries=%d, want %d", st.CacheEntries, len(reqs))
	}
}

// TestColdStartAfterTruncatedSnapshot is the crash-during-save restart
// scenario: the snapshot on disk is cut mid-stream, the load fails
// typed, and the engine still serves every request cold — a torn
// checkpoint costs warmth, never availability or correctness.
func TestColdStartAfterTruncatedSnapshot(t *testing.T) {
	reqs := warmupBatch()
	path := filepath.Join(t.TempDir(), "cache.snap")

	e1 := New(Config{Workers: 4, CacheSize: 64})
	e1.SubmitBatch(reqs)
	if _, err := e1.SaveCacheSnapshot(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	e1.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o600); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{Workers: 4, CacheSize: 64})
	defer e2.Close()
	if n, err := e2.LoadCacheSnapshot(path); err == nil {
		t.Fatalf("torn snapshot loaded %d entries without error", n)
	}
	if st := e2.Stats(); st.CacheLoaded != 0 || st.CacheEntries != 0 {
		t.Fatalf("torn snapshot leaked entries: loaded=%d entries=%d", st.CacheLoaded, st.CacheEntries)
	}
	for i, res := range e2.SubmitBatch(reqs) {
		if !res.Ok() {
			t.Fatalf("cold request %d failed: %s", i, res.Error)
		}
	}
}

// TestLoadSnapshotMissingFile keeps the boot path honest: a missing
// snapshot is an error the daemon reports, not a silent cold start.
func TestLoadSnapshotMissingFile(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 8})
	defer e.Close()
	if _, err := e.LoadCacheSnapshot(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
}
