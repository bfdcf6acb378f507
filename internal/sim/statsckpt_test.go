package sim

import (
	"reflect"
	"testing"

	"ipim/internal/ckpt"
)

func TestStatsCkptRoundTrip(t *testing.T) {
	// Every leaf gets a distinct value (fillDistinct from the fold
	// test), so a codec that drops, duplicates, or reorders a leaf
	// cannot round-trip.
	var s Stats
	fillDistinct(&s, 1)
	var e ckpt.Enc
	s.EncodeCkpt(&e)

	var got Stats
	d := ckpt.NewDec(e.Bytes())
	got.DecodeCkpt(d)
	if d.Err() != nil {
		t.Fatalf("decode: %v", d.Err())
	}
	if d.Len() != 0 {
		t.Fatalf("decode left %d bytes unconsumed", d.Len())
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// Unlike the Add fold, the codec is a verbatim image: the
	// specially folded fields must survive too.
	if got.Cycles != s.Cycles || got.NoC.MaxLatency != s.NoC.MaxLatency {
		t.Errorf("specially folded fields dropped: Cycles %d/%d, MaxLatency %d/%d",
			got.Cycles, s.Cycles, got.NoC.MaxLatency, s.NoC.MaxLatency)
	}
}

func TestStatsCkptTruncated(t *testing.T) {
	var s Stats
	fillDistinct(&s, 1)
	var e ckpt.Enc
	s.EncodeCkpt(&e)

	var got Stats
	d := ckpt.NewDec(e.Bytes()[:8]) // one leaf, then starvation
	got.DecodeCkpt(d)
	if d.Err() == nil {
		t.Fatal("decoding a truncated Stats payload must set the decoder error")
	}
}
