// Package fleet is the distributed serving tier: a front-tier router
// (cmd/ipim-router) that spreads requests across a fleet of ipim-serve
// workers. Placement is a consistent-hash ring over the artifact key
// (workload, options, image geometry), so each worker's single-flight
// compile cache and autotune store see a stable shard of the keyspace,
// and a multi-frame stream sticks to one worker for its whole life.
// Workers announce themselves with heartbeats (internal/serve fleet
// worker mode); draining, degraded, recovering or dead workers fall
// out of the ring and only their keys rehash. Per-tenant QoS sits in
// front: a smooth-weighted-round-robin scheduler with bounded
// per-tenant queues admits requests into a global in-flight cap.
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes. It is not
// goroutine-safe; the Registry serializes access.
//
// Determinism contract: the point list is sorted by (hash, member), so
// a ring holding the same member set places every key identically no
// matter the order members were added in — routers restarted or
// rebuilt mid-flight agree on placement. Removing a member deletes
// only that member's points, so only keys that mapped to it move.
type Ring struct {
	vnodes  int
	points  []point // sorted by (hash, member)
	members map[string]bool
}

// point is one virtual node: a member replica's position on the ring.
type point struct {
	hash   uint64
	member string
}

// defaultVnodes balances placement evenness (spread ~±10% across a
// small fleet) against point-list size.
const defaultVnodes = 64

// NewRing builds an empty ring; vnodes <= 0 takes the default.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	return &Ring{vnodes: vnodes, members: map[string]bool{}}
}

// Add inserts a member's virtual nodes (no-op if present).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash64(member + "#" + strconv.Itoa(i)), member})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
}

// Remove deletes a member's virtual nodes (no-op if absent). The
// surviving points keep their positions: only the removed member's
// keys rehash.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Lookup returns the member owning key: the first point clockwise from
// the key's hash. ok is false on an empty ring.
func (r *Ring) Lookup(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}

// LookupN returns up to n distinct members clockwise from the key —
// the owner first, then the failover order a router walks when the
// owner dies mid-request.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// hash64 is FNV-1a over the string — stable across processes and Go
// versions, which the cross-process placement contract requires.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
