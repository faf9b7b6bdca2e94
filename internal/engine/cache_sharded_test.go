package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nanoxbar/internal/core"
)

// hexKey builds a realistic cache key (64 hex chars, like core.CacheKey
// output) from an integer id.
func hexKey(id int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", id)))
	return hex.EncodeToString(sum[:])
}

func TestShardedCacheShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {100, 128},
	} {
		c := newShardedCache(64, tc.req)
		if len(c.shards) != tc.want {
			t.Errorf("shards(%d) = %d, want %d", tc.req, len(c.shards), tc.want)
		}
	}
	// Total capacity never drops below the request.
	c := newShardedCache(100, 16)
	if got := c.capacity(); got < 100 {
		t.Fatalf("capacity %d < requested 100", got)
	}
}

func TestShardedCacheSingleFlightPerKey(t *testing.T) {
	c := newShardedCache(256, 16)
	const keys, goroutinesPerKey = 32, 8
	var calls atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := hexKey(k)
		id := k
		for g := 0; g < goroutinesPerKey; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				imp, err, _ := c.getOrCompute(key, func() (*core.Implementation, error) {
					calls.Add(1)
					return fakeImp(id), nil
				})
				if err != nil || imp.Rows != id {
					t.Errorf("key %d: imp=%v err=%v", id, imp, err)
				}
			}()
		}
	}
	wg.Wait()
	if got := calls.Load(); got != keys {
		t.Fatalf("compute ran %d times, want once per key (%d)", got, keys)
	}
	hits, misses, _, _, entries := c.counters()
	if misses != keys || hits != keys*(goroutinesPerKey-1) {
		t.Fatalf("hits=%d misses=%d, want %d/%d", hits, misses, keys*(goroutinesPerKey-1), keys)
	}
	if entries != keys {
		t.Fatalf("entries=%d, want %d", entries, keys)
	}
}

func TestShardedCacheDistributesAcrossShards(t *testing.T) {
	c := newShardedCache(4096, 16)
	const keys = 1024
	for k := 0; k < keys; k++ {
		id := k
		c.getOrCompute(hexKey(k), func() (*core.Implementation, error) { return fakeImp(id), nil })
	}
	// FNV over sha-256 hex keys should land every shard well away from
	// zero; a skew this coarse would mean the shard picker is broken.
	for i, sh := range c.shards {
		_, _, _, n := sh.counters()
		if n == 0 {
			t.Errorf("shard %d/%d got no entries for %d keys", i, len(c.shards), keys)
		}
	}
}

func TestShardedCacheInsertAndSnapshot(t *testing.T) {
	c := newShardedCache(64, 4)
	// Live result wins over a snapshot insert for the same key.
	key := hexKey(1)
	c.getOrCompute(key, func() (*core.Implementation, error) { return fakeImp(10), nil })
	if c.insert(key, fakeImp(99)) {
		t.Fatal("insert replaced a live entry")
	}
	if !c.insert(hexKey(2), fakeImp(20)) {
		t.Fatal("insert of a fresh key failed")
	}
	imp, err, hit := c.getOrCompute(key, func() (*core.Implementation, error) {
		t.Fatal("live entry recomputed")
		return nil, nil
	})
	if err != nil || !hit || imp.Rows != 10 {
		t.Fatalf("lookup after insert: imp=%v err=%v hit=%v", imp, err, hit)
	}
	imp, err, hit = c.getOrCompute(hexKey(2), func() (*core.Implementation, error) {
		t.Fatal("inserted entry recomputed")
		return nil, nil
	})
	if err != nil || !hit || imp.Rows != 20 {
		t.Fatalf("lookup of inserted key: imp=%v err=%v hit=%v", imp, err, hit)
	}
	_, _, _, loads, entries := c.counters()
	if loads != 1 || entries != 2 {
		t.Fatalf("loads=%d entries=%d, want 1/2", loads, entries)
	}
	snap := c.snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	for _, e := range snap {
		if e.Key == "" || e.Imp == nil {
			t.Fatalf("snapshot entry incomplete: %+v", e)
		}
	}
}

func TestShardedCacheSnapshotSkipsInFlight(t *testing.T) {
	c := newShardedCache(64, 4)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.getOrCompute(hexKey(1), func() (*core.Implementation, error) {
		close(started)
		<-release
		return fakeImp(1), nil
	})
	<-started
	c.insert(hexKey(2), fakeImp(2))
	snap := c.snapshot()
	close(release)
	if len(snap) != 1 || snap[0].Imp.Rows != 2 {
		t.Fatalf("snapshot %v, want only the completed entry", snap)
	}
}

// BenchmarkEngineCacheContention measures hit-path throughput of the
// single-lock LRU against the sharded cache under parallel load. The
// serving daemon's steady state is exactly this: every worker hitting
// the cache with already-synthesized keys. The sharded cache must scale
// with GOMAXPROCS where the single mutex plateaus.
func BenchmarkEngineCacheContention(b *testing.B) {
	const numKeys = 1024
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = hexKey(i)
	}
	imp := fakeImp(1)
	type synthCache interface {
		getOrCompute(string, func() (*core.Implementation, error)) (*core.Implementation, error, bool)
	}
	run := func(b *testing.B, c synthCache) {
		for _, k := range keys {
			c.getOrCompute(k, func() (*core.Implementation, error) { return imp, nil })
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keys[i&(numKeys-1)]
				i++
				_, err, hit := c.getOrCompute(k, func() (*core.Implementation, error) { return imp, nil })
				if err != nil || !hit {
					b.Fatalf("hit path missed: err=%v hit=%v", err, hit)
				}
			}
		})
	}
	b.Run("single-lock", func(b *testing.B) { run(b, newCache(2*numKeys)) })
	b.Run("sharded", func(b *testing.B) { run(b, newShardedCache(2*numKeys, cacheShards(runtime.GOMAXPROCS(0)))) })
}
