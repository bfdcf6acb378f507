package dram

import (
	"errors"
	"math"
	"testing"

	"ipim/internal/ckpt"
)

// warmCtrl drives a controller through a handful of requests plus ECC
// traffic so every serialized field is away from its zero value, and
// returns the clock after the last completion.
func warmCtrl(t *testing.T, c *Controller) int64 {
	t.Helper()
	now := int64(0)
	for i, r := range []*Request{
		{Bank: 0, Addr: 0, Write: false},
		{Bank: 1, Addr: 4096, Write: true},
		{Bank: 0, Addr: 64, Write: false}, // row hit on bank 0
		{Bank: 3, Addr: 1 << 20, Write: false},
		{Bank: 2, Addr: 8192, Write: false},
		{Bank: 1, Addr: 1 << 21, Write: true}, // row miss on bank 1
	} {
		if !c.Enqueue(now, r) {
			t.Fatalf("request %d: queue full", i)
		}
		for !r.Done {
			ev := c.NextEvent(now)
			if ev == math.MaxInt64 {
				t.Fatal("controller idle with pending request")
			}
			now = ev
			c.AdvanceTo(now)
		}
	}
	c.NoteECC(0, true)
	c.NoteECC(2, false)
	return now
}

func encodeCtrl(c *Controller) []byte {
	var e ckpt.Enc
	c.EncodeCkpt(&e)
	return e.Bytes()
}

func TestCtrlCkptRoundTrip(t *testing.T) {
	src := newTestCtrl(OpenPage, FRFCFS)
	now := warmCtrl(t, src)
	if len(src.actTimes) != fawACTs {
		t.Fatalf("warm controller holds %d ACT times, want a full window of %d", len(src.actTimes), fawACTs)
	}
	payload := encodeCtrl(src)

	// Decode into a controller built with the other policies: the
	// checkpoint carries its own and must win.
	dst := newTestCtrl(ClosePage, FCFS)
	if err := dst.DecodeCkpt(ckpt.NewDec(payload)); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if p, s := dst.Policies(); p != OpenPage || s != FRFCFS {
		t.Errorf("restored policies = (%v, %v), want (OpenPage, FRFCFS)", p, s)
	}
	if dst.Stats != src.Stats {
		t.Errorf("restored Stats = %+v, want %+v", dst.Stats, src.Stats)
	}
	// Re-encoding the restored controller must be byte-identical: the
	// state round-trips verbatim.
	if got := encodeCtrl(dst); string(got) != string(payload) {
		t.Error("re-encoded checkpoint differs from the original")
	}
	// And the two controllers must schedule an identical future
	// request identically.
	a := runOne(t, src, now, 0, 64, false)
	b := runOne(t, dst, now, 0, 64, false)
	if a.Finish != b.Finish {
		t.Errorf("post-restore request finished at %d on the original, %d on the restored", a.Finish, b.Finish)
	}
}

func TestCtrlCkptRejections(t *testing.T) {
	src := newTestCtrl(OpenPage, FRFCFS)
	now := warmCtrl(t, src)
	payload := encodeCtrl(src)
	decode := func(c *Controller, b []byte) error { return c.DecodeCkpt(ckpt.NewDec(b)) }

	eight := NewController(8, 16, DefaultTiming(), DefaultGeometry(), OpenPage, FRFCFS)
	if err := decode(eight, payload); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("bank-count mismatch: err = %v, want ErrCorrupt", err)
	}
	if err := decode(newTestCtrl(OpenPage, FRFCFS), payload[:10]); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("truncated: err = %v, want ErrCorrupt", err)
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 0xFF // impossible page policy
	if err := decode(newTestCtrl(OpenPage, FRFCFS), bad); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("unknown policy: err = %v, want ErrCorrupt", err)
	}
	// An ACT history longer than the tFAW window is no controller's.
	src.actTimes = append(src.actTimes, now)
	if err := decode(newTestCtrl(OpenPage, FRFCFS), encodeCtrl(src)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("overlong ACT window: err = %v, want ErrCorrupt", err)
	}
	src.actTimes = src.actTimes[:fawACTs]
	src.lastActGroup = src.lastActGroup[:1]
	if err := decode(newTestCtrl(OpenPage, FRFCFS), encodeCtrl(src)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("ACT-group count mismatch: err = %v, want ErrCorrupt", err)
	}
}
