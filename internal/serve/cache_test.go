package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ipim"
	"ipim/internal/obs"
)

// TestCacheSingleflight: N concurrent gets for one uncached key must
// run the compile function exactly once.
func TestCacheSingleflight(t *testing.T) {
	c := newArtifactCache(4)
	var compiles atomic.Int64
	art := &ipim.Artifact{}
	key := cacheKey{Workload: "w", W: 32, H: 16, Opts: ipim.Opt}

	const n = 16
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, hit, err := c.get(key, func() (*ipim.Artifact, error) {
				compiles.Add(1)
				return art, nil
			})
			if err != nil {
				t.Errorf("get: %v", err)
			}
			if got != art {
				t.Error("got a different artifact")
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if compiles.Load() != 1 {
		t.Fatalf("compiled %d times, want exactly 1", compiles.Load())
	}
	if hits.Load() != n-1 {
		t.Errorf("hits = %d, want %d", hits.Load(), n-1)
	}
	st := c.stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, 1 entry", st, n-1)
	}
}

// TestCacheErrorNotCached: a failed compile must not poison the key —
// the next get retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := newArtifactCache(4)
	key := cacheKey{Workload: "w", W: 8, H: 8, Opts: ipim.Opt}
	boom := errors.New("boom")
	if _, _, _, err := c.get(key, func() (*ipim.Artifact, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want compile error, got %v", err)
	}
	art := &ipim.Artifact{}
	got, _, hit, err := c.get(key, func() (*ipim.Artifact, error) { return art, nil })
	if err != nil || got != art || hit {
		t.Fatalf("retry after failure: got=%v hit=%v err=%v", got, hit, err)
	}
}

// TestCacheCompileSeconds: every miss observes its compile time, a
// failed compile included; a hit observes nothing.
func TestCacheCompileSeconds(t *testing.T) {
	c := newArtifactCache(4)
	reg := &obs.Registry{}
	c.compileSeconds = reg.Histogram("compile_seconds", "Compile time.", []float64{1})
	key := cacheKey{Workload: "w", W: 8, H: 8, Opts: ipim.Opt}
	c.get(key, func() (*ipim.Artifact, error) { return nil, errors.New("boom") })
	art := &ipim.Artifact{}
	c.get(key, func() (*ipim.Artifact, error) { return art, nil })
	c.get(key, func() (*ipim.Artifact, error) { return art, nil })
	var b strings.Builder
	reg.Write(&b)
	if !strings.Contains(b.String(), "\ncompile_seconds_count 2\n") {
		t.Errorf("want 2 observed compiles (one failed, one ok; the hit unobserved):\n%s", b.String())
	}
}

// TestCacheLRUEviction: the oldest entry is evicted at capacity and a
// later get for it recompiles.
func TestCacheLRUEviction(t *testing.T) {
	c := newArtifactCache(2)
	mk := func(w int) cacheKey { return cacheKey{Workload: "w", W: w, H: 8, Opts: ipim.Opt} }
	var compiles atomic.Int64
	compile := func() (*ipim.Artifact, error) {
		compiles.Add(1)
		return &ipim.Artifact{}, nil
	}
	for _, w := range []int{1, 2, 3} { // 3 keys through a cap-2 cache
		if _, _, _, err := c.get(mk(w), compile); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", st)
	}
	// Key 1 was the LRU victim: touching it again recompiles.
	before := compiles.Load()
	if _, _, hit, err := c.get(mk(1), compile); err != nil || hit {
		t.Fatalf("evicted key: hit=%v err=%v", hit, err)
	}
	if compiles.Load() != before+1 {
		t.Error("evicted key did not recompile")
	}
	// Key 3 is still resident.
	if _, _, hit, err := c.get(mk(3), compile); err != nil || !hit {
		t.Fatalf("resident key: hit=%v err=%v", hit, err)
	}
}
