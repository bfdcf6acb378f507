// Package noc models iPIM's interconnect (paper Sec. IV-E): a 2D-mesh
// on-chip network among the vaults of a cube and a 2D-mesh off-chip
// SERDES network among cubes. Routers are input-queued and use
// dimension-order (X-Y) routing with simple link-level flow control:
// each unidirectional link serializes the flits that cross it.
//
// X-Y routing on a mesh is minimal and deadlock-free; the model tracks
// per-link busy time so contended transfers slow down realistically, and
// counts hops and flits for the energy model.
package noc

import (
	"fmt"

	"ipim/internal/fault"
)

// Direction indexes a router's four mesh output links.
type Direction int

// The four output links of a mesh router. X-Y routing moves East or
// West (+x / -x) first, then South or North (+y / -y).
const (
	East Direction = iota
	West
	North
	South
	numDirs
)

// Stats aggregates network activity for energy accounting and analysis.
// The fault counters are nonzero only under an attached fault.Plan.
type Stats struct {
	// Packets counts injected packets.
	Packets int64
	// Flits counts link traversals x flit (for per-hop energy).
	Flits int64
	// Hops counts link traversals, one per packet per hop.
	Hops int64
	// MaxLatency is the longest injection-to-delivery time of any
	// packet, in cycles.
	MaxLatency int64
	// LinkFaults counts link traversals on which an injected fault
	// forced the packet's flits to be retransmitted.
	LinkFaults int64
	// RetransmitFlits counts the extra flit-traversals those
	// retransmits cost (they do not count into Flits).
	RetransmitFlits int64
}

// faultState couples a fault plan with the per-source traversal
// counter. The counter is advanced only by the single caller that owns
// the surrounding link state, so the decision stream is a pure function
// of that source's own send history (see internal/fault).
type faultState struct {
	plan *fault.Plan
	site uint64
	n    uint64
}

// Mesh is a W×H 2D mesh topology. Node i sits at (i%W, i/W).
//
// A Mesh is immutable after NewMesh, so it may be consulted (Route,
// HopCount, SendOn) from many goroutines. Link occupancy and traffic
// counters live in caller-private LinkStates (NewLinkState), which let
// concurrent traffic sources each model their own contention
// deterministically.
type Mesh struct {
	// W and H are the mesh width and height in nodes.
	W, H int

	// HopLatNum/HopLatDen express per-hop latency in cycles as a
	// rational so the 0.08 ns SERDES hop is representable at the 1 GHz
	// clock (latency = ceil(hops*Num/Den)).
	HopLatNum, HopLatDen int64

	// LinkBytesPerCycle is each link's serialization bandwidth.
	LinkBytesPerCycle int
}

// LinkState is one traffic source's private view of the mesh: its link
// occupancy ("when does this output link free up for MY stream") and
// its share of the traffic counters. Sharding link state per source
// makes transfer latency a pure function of that source's own send
// history — independent of how concurrently simulated sources
// interleave — which is what makes parallel vault simulation
// bit-reproducible. The price is that cross-source link contention
// inside one barrier phase is not modeled; see DESIGN.md.
type LinkState struct {
	// linkFree[node][dir] is the cycle the output link becomes free.
	linkFree [][numDirs]int64

	faults *faultState

	// Stats is this source's share of the mesh's traffic counters.
	Stats Stats
}

// AttachFaults arms link-fault injection for sends through this shard.
// site must be unique per (plan, shard) — derive it with fault.Site
// from the source's coordinates. A nil plan detaches.
func (st *LinkState) AttachFaults(p *fault.Plan, site uint64) {
	st.faults = newFaultState(p, site)
}

func newFaultState(p *fault.Plan, site uint64) *faultState {
	if p == nil {
		return nil
	}
	return &faultState{plan: p, site: site}
}

// NewMesh builds a W×H mesh with per-hop latency hopLatNum/hopLatDen
// cycles and the given link width in bytes/cycle.
func NewMesh(w, h int, hopLatNum, hopLatDen int64, linkBytesPerCycle int) *Mesh {
	if w <= 0 || h <= 0 || linkBytesPerCycle <= 0 || hopLatDen <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh w=%d h=%d lbpc=%d den=%d", w, h, linkBytesPerCycle, hopLatDen))
	}
	return &Mesh{
		W: w, H: h,
		HopLatNum: hopLatNum, HopLatDen: hopLatDen,
		LinkBytesPerCycle: linkBytesPerCycle,
	}
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.W * m.H }

// XY converts a node id to mesh coordinates.
func (m *Mesh) XY(node int) (x, y int) { return node % m.W, node / m.W }

// Node converts coordinates to a node id.
func (m *Mesh) Node(x, y int) int { return y*m.W + x }

// Route returns the X-Y route from src to dst as a sequence of
// (node, direction) link traversals. An empty route means src == dst.
func (m *Mesh) Route(src, dst int) []struct {
	Node int
	Dir  Direction
} {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: route %d->%d outside %d-node mesh", src, dst, m.Nodes()))
	}
	var route []struct {
		Node int
		Dir  Direction
	}
	x, y := m.XY(src)
	dx, dy := m.XY(dst)
	for x != dx { // X first
		d := East
		nx := x + 1
		if dx < x {
			d = West
			nx = x - 1
		}
		route = append(route, struct {
			Node int
			Dir  Direction
		}{m.Node(x, y), d})
		x = nx
	}
	for y != dy { // then Y
		d := South
		ny := y + 1
		if dy < y {
			d = North
			ny = y - 1
		}
		route = append(route, struct {
			Node int
			Dir  Direction
		}{m.Node(x, y), d})
		y = ny
	}
	return route
}

// HopCount returns the minimal hop distance between two nodes.
func (m *Mesh) HopCount(src, dst int) int {
	x, y := m.XY(src)
	dx, dy := m.XY(dst)
	return abs(x-dx) + abs(y-dy)
}

// NewLinkState allocates a private link-state shard for one traffic
// source on this mesh.
func (m *Mesh) NewLinkState() *LinkState {
	return &LinkState{linkFree: make([][numDirs]int64, m.Nodes())}
}

// Reset rewinds the shard's link-occupancy timeline to zero and zeroes
// its traffic counters. Any attached fault decision stream continues
// where it left off. The machine resets every shard at the start of
// each run, alongside the vaults' clocks.
func (st *LinkState) Reset() {
	clear(st.linkFree)
	st.Stats = Stats{}
}

// SendOn injects a packet of size bytes at time now over the caller's
// LinkState and returns its delivery time at dst. Contention is modeled
// only against the caller's own earlier sends, and counters accumulate
// into the shard. Distinct LinkStates may be driven from distinct
// goroutines concurrently.
//
// Each link on the X-Y route serializes the packet's flits; per-hop
// latency accumulates as a rational. With a fault state attached, each
// link traversal may be faulted: the packet's flits re-serialize on
// that link and the retry penalty is added, delaying the tail and
// holding the link longer. With a zero link-fault rate the timing
// arithmetic is untouched (strict no-op).
func (m *Mesh) SendOn(st *LinkState, now int64, src, dst, bytes int) int64 {
	if bytes <= 0 {
		panic(fmt.Sprintf("noc: packet of %d bytes", bytes))
	}
	fs := st.faults
	if fs != nil && fs.plan.LinkFaultRate <= 0 {
		fs = nil // zero-rate plan: do not consume traversal events
	}
	route := m.Route(src, dst)
	flits := int64((bytes + m.LinkBytesPerCycle - 1) / m.LinkBytesPerCycle)
	// Wormhole pipelining: the head advances link by link (stalling on
	// busy links); each link is then held for the packet's flits; the
	// tail arrives flits-1 cycles after the head; propagation adds the
	// per-hop latency over the whole route.
	head := now
	tailHold := flits
	for _, hop := range route {
		if free := st.linkFree[hop.Node][hop.Dir]; free > head {
			head = free
		}
		hold := flits
		if fs != nil {
			n := fs.n
			fs.n++
			if fs.plan.LinkFault(fs.site, n) {
				hold += flits + fs.plan.LinkRetryPenalty
				st.Stats.LinkFaults++
				st.Stats.RetransmitFlits += flits
			}
		}
		st.linkFree[hop.Node][hop.Dir] = head + hold
		if hold > tailHold {
			tailHold = hold
		}
		st.Stats.Flits += flits
	}
	hops := int64(len(route))
	t := now
	if hops > 0 {
		t = head + tailHold - 1 + ceilDiv(hops*m.HopLatNum, m.HopLatDen)
	}
	st.Stats.Packets++
	st.Stats.Hops += hops
	if lat := t - now; lat > st.Stats.MaxLatency {
		st.Stats.MaxLatency = lat
	}
	return t
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
