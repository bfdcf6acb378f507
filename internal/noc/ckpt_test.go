package noc

import (
	"errors"
	"testing"

	"ipim/internal/ckpt"
	"ipim/internal/fault"
)

func encodeLinks(st *LinkState) []byte {
	var e ckpt.Enc
	st.EncodeCkpt(&e)
	return e.Bytes()
}

func TestMeshCkptRoundTrip(t *testing.T) {
	m := NewMesh(4, 4, 1, 1, 16)
	src := m.NewLinkState()
	m.SendOn(src, 0, m.Node(0, 0), m.Node(3, 3), 128)
	m.SendOn(src, 7, m.Node(1, 2), m.Node(2, 0), 64)
	payload := encodeLinks(src)

	dst := m.NewLinkState()
	if err := dst.DecodeCkpt(ckpt.NewDec(payload)); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if dst.Stats != src.Stats {
		t.Errorf("restored Stats = %+v, want %+v", dst.Stats, src.Stats)
	}
	// Re-encode must be byte-identical, and an identical future send
	// must observe identical link occupancy on both shards.
	if string(encodeLinks(dst)) != string(payload) {
		t.Error("re-encoded checkpoint differs from the original")
	}
	a := m.SendOn(src, 9, m.Node(0, 0), m.Node(3, 3), 256)
	b := m.SendOn(dst, 9, m.Node(0, 0), m.Node(3, 3), 256)
	if a != b {
		t.Errorf("post-restore send finished at %d on the original, %d on the restored", a, b)
	}
}

func TestLinkStateCkptRoundTripWithFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 7, LinkFaultRate: 0.5, LinkRetryPenalty: 3}
	mk := func() (*Mesh, *LinkState) {
		m := NewMesh(4, 4, 1, 1, 16)
		st := m.NewLinkState()
		st.AttachFaults(plan, fault.Site(fault.DomLink, 11))
		return m, st
	}
	src, sst := mk()
	src.SendOn(sst, 0, src.Node(0, 0), src.Node(3, 1), 96)
	src.SendOn(sst, 3, src.Node(2, 2), src.Node(0, 3), 48)

	var e ckpt.Enc
	sst.EncodeCkpt(&e)
	dst, dst2 := mk() // AttachFaults zeroes the stream position...
	if err := dst2.DecodeCkpt(ckpt.NewDec(e.Bytes())); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dst2.Stats != sst.Stats {
		t.Errorf("restored shard Stats = %+v, want %+v", dst2.Stats, sst.Stats)
	}
	// ...and DecodeCkpt restores it, so both shards roll the same future
	// fault decisions: identical sends land at identical times with
	// identical fault counters.
	a := src.SendOn(sst, 20, src.Node(0, 0), src.Node(3, 3), 512)
	b := dst.SendOn(dst2, 20, dst.Node(0, 0), dst.Node(3, 3), 512)
	if a != b || sst.Stats != dst2.Stats {
		t.Errorf("post-restore divergence: finish %d vs %d, stats %+v vs %+v",
			a, b, sst.Stats, dst2.Stats)
	}
}

func TestLinkCkptRejections(t *testing.T) {
	m := NewMesh(4, 4, 1, 1, 16)
	payload := encodeLinks(m.NewLinkState())
	if err := NewMesh(2, 2, 1, 1, 16).NewLinkState().DecodeCkpt(ckpt.NewDec(payload)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("node-count mismatch: err = %v, want ErrCorrupt", err)
	}
	if err := m.NewLinkState().DecodeCkpt(ckpt.NewDec(payload[:6])); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("truncated: err = %v, want ErrCorrupt", err)
	}
}
