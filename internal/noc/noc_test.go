package noc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXYNodeRoundTrip(t *testing.T) {
	m := NewMesh(4, 4, 1, 1, 16)
	for n := 0; n < m.Nodes(); n++ {
		x, y := m.XY(n)
		if m.Node(x, y) != n {
			t.Fatalf("node %d -> (%d,%d) -> %d", n, x, y, m.Node(x, y))
		}
	}
}

func TestRouteIsXYAndMinimal(t *testing.T) {
	m := NewMesh(4, 4, 1, 1, 16)
	src, dst := m.Node(0, 3), m.Node(3, 0)
	route := m.Route(src, dst)
	if len(route) != m.HopCount(src, dst) {
		t.Fatalf("route length %d != hop count %d", len(route), m.HopCount(src, dst))
	}
	// X movement must complete before any Y movement (X-Y routing).
	seenY := false
	for _, h := range route {
		vertical := h.Dir == North || h.Dir == South
		if vertical {
			seenY = true
		} else if seenY {
			t.Fatal("horizontal hop after vertical hop: not X-Y routing")
		}
	}
}

func TestRouteEmptyForSelf(t *testing.T) {
	m := NewMesh(4, 4, 1, 1, 16)
	if len(m.Route(5, 5)) != 0 {
		t.Fatal("self route not empty")
	}
	if got := m.SendOn(m.NewLinkState(), 100, 5, 5, 64); got != 100 {
		t.Fatalf("self send latency = %d, want 0", got-100)
	}
}

func TestSendLatencyScalesWithDistance(t *testing.T) {
	m := NewMesh(4, 4, 1, 1, 16)
	near := m.SendOn(m.NewLinkState(), 0, m.Node(0, 0), m.Node(1, 0), 16)
	far := m.SendOn(m.NewLinkState(), 0, m.Node(0, 0), m.Node(3, 3), 16)
	if far <= near {
		t.Fatalf("far latency %d <= near latency %d", far, near)
	}
	// Wormhole: latency = hops*hopLat + (flits-1). 1 flit, 1 hop => 1.
	if near != 1 {
		t.Fatalf("1-hop 1-flit latency = %d, want 1", near)
	}
	if far != 6 { // 6 hops, 1 flit
		t.Fatalf("6-hop latency = %d, want 6", far)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	m := NewMesh(4, 1, 1, 1, 16)
	st := m.NewLinkState()
	// Two packets over the same link at the same time: the second is
	// delayed by the first's serialization.
	a := m.SendOn(st, 0, 0, 1, 64) // 4 flits
	b := m.SendOn(st, 0, 0, 1, 64)
	if b <= a {
		t.Fatalf("contended packet not delayed: a=%d b=%d", a, b)
	}
	if b-a != 4 {
		t.Fatalf("second packet delayed by %d, want 4 flits", b-a)
	}
}

func TestDisjointLinksDoNotContend(t *testing.T) {
	m := NewMesh(4, 1, 1, 1, 16)
	st := m.NewLinkState()
	a := m.SendOn(st, 0, 0, 1, 64)
	c := m.SendOn(st, 0, 2, 3, 64) // different link entirely
	if c != a {
		t.Fatalf("disjoint transfers interfered: %d vs %d", a, c)
	}
}

func TestFractionalHopLatency(t *testing.T) {
	// SERDES hop = 0.08 ns => num=8, den=100. 13 hops should cost
	// ceil(13*8/100) = 2 extra cycles (on a 14x1 mesh wrap-free path).
	m := NewMesh(14, 1, 8, 100, 16)
	got := m.SendOn(m.NewLinkState(), 0, 0, 13, 16)
	// 13 hops, 1 flit: head propagation ceil(13*8/100) = 2 cycles.
	if got != 2 {
		t.Fatalf("fractional hop latency: got %d, want 2", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := NewMesh(4, 4, 1, 1, 16)
	st := m.NewLinkState()
	m.SendOn(st, 0, 0, 3, 32)
	m.SendOn(st, 0, 0, 3, 32)
	if st.Stats.Packets != 2 {
		t.Fatalf("packets = %d", st.Stats.Packets)
	}
	if st.Stats.Hops != 6 {
		t.Fatalf("hops = %d, want 6", st.Stats.Hops)
	}
	if st.Stats.Flits != 12 { // 2 flits x 3 hops x 2 packets
		t.Fatalf("flits = %d, want 12", st.Stats.Flits)
	}
	if st.Stats.MaxLatency <= 0 {
		t.Fatal("max latency not tracked")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	for name, f := range map[string]func(){
		"bad mesh":   func() { NewMesh(0, 4, 1, 1, 16) },
		"bad width":  func() { NewMesh(4, 4, 1, 1, 0) },
		"bad den":    func() { NewMesh(4, 4, 1, 0, 16) },
		"bad route":  func() { NewMesh(2, 2, 1, 1, 16).Route(0, 9) },
		"zero bytes": func() { m := NewMesh(2, 2, 1, 1, 16); m.SendOn(m.NewLinkState(), 0, 0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: every packet is delivered at a time >= injection, route
// length equals Manhattan distance, and delivery order on a shared link
// matches injection order.
func TestDeliveryInvariantsQuick(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	f := func() bool {
		m := NewMesh(4, 4, 1, 1, 16)
		st := m.NewLinkState()
		now := int64(0)
		for i := 0; i < 50; i++ {
			src := rnd.Intn(16)
			dst := rnd.Intn(16)
			bytes := 16 * (1 + rnd.Intn(8))
			arr := m.SendOn(st, now, src, dst, bytes)
			if arr < now {
				t.Logf("delivered before injection: %d < %d", arr, now)
				return false
			}
			if len(m.Route(src, dst)) != m.HopCount(src, dst) {
				t.Log("non-minimal route")
				return false
			}
			now += int64(rnd.Intn(3))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
