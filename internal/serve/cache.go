package serve

import (
	"container/list"
	"sync"
	"time"

	"ipim"
	"ipim/internal/autotune"
	"ipim/internal/obs"
)

// cacheKey identifies one compiled artifact: the workload, the input
// geometry and the compiler configuration. The machine configuration is
// fixed per server, so it is not part of the key.
type cacheKey struct {
	Workload string
	W, H     int
	Opts     ipim.Options
}

// cacheEntry is one cache slot. ready is closed when the compile
// finishes; until then art/err must not be read. Waiters that find an
// in-flight entry block on ready instead of compiling again, which is
// the duplicate-suppression guarantee: N concurrent requests for an
// uncached key trigger exactly one Compile.
type cacheEntry struct {
	key   cacheKey
	elem  *list.Element
	ready chan struct{}
	art   *ipim.Artifact
	err   error
	// sched is the tuned schedule the artifact was compiled with, or
	// nil for the default schedule. Set only by swap, which replaces
	// the whole entry, so art and sched are always consistent.
	sched *autotune.Candidate
}

// artifactCache is an LRU cache of compiled artifacts with
// single-flight compilation. Failed compiles are not cached: the
// failing entry is removed before its waiters wake, so the next
// request retries.
type artifactCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*cacheEntry

	hits, misses, evictions, swaps int64

	// compileSeconds observes the wall time of every compile a miss
	// runs, failed ones included. newMetrics sets it; it is nil in a
	// cache built without a server.
	compileSeconds *obs.Histogram
}

func newArtifactCache(capacity int) *artifactCache {
	if capacity < 1 {
		capacity = 1
	}
	return &artifactCache{
		cap:     capacity,
		ll:      list.New(),
		entries: map[cacheKey]*cacheEntry{},
	}
}

// get returns the artifact for key, compiling it at most once per
// cache residency. hit reports whether the caller was served without
// initiating a compile (including waiting on another request's
// in-flight compile). sched is non-nil when the background tuner has
// swapped in a tuned-schedule artifact for this key.
func (c *artifactCache) get(key cacheKey, compile func() (*ipim.Artifact, error)) (art *ipim.Artifact, sched *autotune.Candidate, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.ll.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.art, e.sched, true, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.ll.PushFront(e)
	c.entries[key] = e
	c.misses++
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		victim := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.entries, victim.key)
		c.evictions++
	}
	c.mu.Unlock()

	start := time.Now()
	e.art, e.err = compile()
	if c.compileSeconds != nil {
		c.compileSeconds.Observe(time.Since(start).Seconds())
	}
	if e.err != nil {
		c.mu.Lock()
		// Only remove if this entry still owns the slot (it may have
		// been evicted while compiling).
		if cur, ok := c.entries[key]; ok && cur == e {
			c.ll.Remove(e.elem)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.art, nil, false, e.err
}

// swap atomically replaces the cached artifact for key with a tuned
// one. The entry keeps its LRU position when key is resident; an
// evicted (or never-seen) key is re-inserted at the front. A key whose
// compile is still in flight is left alone: the tuner retries on no
// schedule anyway, and fighting an in-flight entry would publish art
// before its waiters' ready fires.
func (c *artifactCache) swap(key cacheKey, art *ipim.Artifact, sched *autotune.Candidate) {
	ne := &cacheEntry{key: key, ready: make(chan struct{}), art: art, sched: sched}
	close(ne.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		select {
		case <-old.ready:
		default:
			return // compile in flight; don't race its publication
		}
		ne.elem = old.elem
		ne.elem.Value = ne
		c.entries[key] = ne
		c.swaps++
		return
	}
	ne.elem = c.ll.PushFront(ne)
	c.entries[key] = ne
	c.swaps++
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		victim := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.entries, victim.key)
		c.evictions++
	}
}

// cacheStats is a point-in-time counter snapshot.
type cacheStats struct {
	Entries, Hits, Misses, Evictions, Swaps int64
}

func (c *artifactCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   int64(c.ll.Len()),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Swaps:     c.swaps,
	}
}
