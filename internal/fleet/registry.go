package fleet

// Worker registry: the router's view of the fleet. Workers push their
// state with heartbeats (POST /fleet/register); the registry folds
// those into the consistent-hash ring — only "ready" workers hold ring
// membership. Liveness is belt and braces: a TTL sweep expires workers
// whose beats stop arriving, and the proxy marks a worker down the
// moment a forward fails at the transport level, so failover does not
// wait out the TTL.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Worker states, shared vocabulary with internal/serve's heartbeat.
// Only StateReady is in the ring.
const (
	StateReady    = "ready"
	StateBacklog  = "backlog" // replaying its checkpoint-journal backlog
	StateDegraded = "degraded"
	StateDraining = "draining"
	StateDown     = "down" // beats stopped, or a forward failed
)

// validStates guards the registration endpoint's state parameter.
var validStates = map[string]bool{
	StateReady: true, StateBacklog: true, StateDegraded: true, StateDraining: true,
}

// workerInfo is one worker's registry record.
type workerInfo struct {
	addr     string
	state    string
	lastBeat time.Time
}

// WorkerStatus is the exported snapshot of one worker (the
// /fleet/workers listing).
type WorkerStatus struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	AgeMilli int64  `json:"last_beat_ms"` // ms since the last beat
}

// Registry tracks the fleet and owns the ring. Goroutine-safe.
type Registry struct {
	mu      sync.Mutex
	workers map[string]*workerInfo
	ring    *Ring
	ttl     time.Duration
}

// NewRegistry builds an empty registry. ttl bounds how stale a beat
// may be before the sweep declares the worker down; vnodes <= 0 takes
// the ring default.
func NewRegistry(vnodes int, ttl time.Duration) *Registry {
	return &Registry{
		workers: map[string]*workerInfo{},
		ring:    NewRing(vnodes),
		ttl:     ttl,
	}
}

// Beat records one heartbeat, adjusting ring membership on state
// transitions. Unknown states are rejected.
func (g *Registry) Beat(addr, state string) error {
	if !validStates[state] {
		return fmt.Errorf("fleet: unknown worker state %q", state)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[addr]
	if !ok {
		w = &workerInfo{addr: addr}
		g.workers[addr] = w
	}
	w.state = state
	w.lastBeat = time.Now()
	if state == StateReady {
		g.ring.Add(addr)
	} else {
		g.ring.Remove(addr)
	}
	return nil
}

// MarkDown takes a worker out of the ring immediately — the proxy
// calls it on a transport-level forward failure, so the very next
// Pick for the same key lands elsewhere. The worker's next heartbeat
// reinstates it.
func (g *Registry) MarkDown(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w, ok := g.workers[addr]; ok {
		w.state = StateDown
	}
	g.ring.Remove(addr)
}

// Sweep expires workers whose last beat is older than the TTL.
// Returns how many it took down.
func (g *Registry) Sweep() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	cutoff := time.Now().Add(-g.ttl)
	for _, w := range g.workers {
		if w.state != StateDown && w.lastBeat.Before(cutoff) {
			w.state = StateDown
			g.ring.Remove(w.addr)
			n++
		}
	}
	return n
}

// Pick returns the ready worker owning key (consistent-hash), or
// ok=false when no worker is ready.
func (g *Registry) Pick(key string) (addr string, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ring.Lookup(key)
}

// ReadyCount reports how many workers are in the ring.
func (g *Registry) ReadyCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ring.Len()
}

// Snapshot lists every known worker, sorted by address.
func (g *Registry) Snapshot() []WorkerStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]WorkerStatus, 0, len(g.workers))
	now := time.Now()
	for _, w := range g.workers {
		out = append(out, WorkerStatus{
			Addr:     w.addr,
			State:    w.state,
			AgeMilli: now.Sub(w.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// stateCounts tallies workers by state for the metrics gauge.
func (g *Registry) stateCounts() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	counts := map[string]int{}
	for _, w := range g.workers {
		counts[w.state]++
	}
	return counts
}
