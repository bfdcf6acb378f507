package vault

import (
	"errors"
	"testing"

	"ipim/internal/ckpt"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// ckptSrc is a small program that dirties a bit of everything a vault
// image carries: VSM, a PE bank, DataRF traffic, DRAM activity.
const ckptSrc = `
seti_vsm 0x0, #1065353216
rd_vsm d1, 0x0, sm=0x1
st_rf d1, 0x40, sm=0x1
ld_rf d2, 0x40, sm=0x1
`

func encodeVault(t *testing.T, v *Vault, progIndex int) []byte {
	t.Helper()
	var e ckpt.Enc
	v.EncodeCkpt(&e, progIndex)
	return e.Bytes()
}

func TestVaultCkptRoundTrip(t *testing.T) {
	cfg := sim.TestTiny()
	src := runSrc(t, cfg, ckptSrc)
	if !src.Quiescent() {
		t.Fatal("vault not quiescent after a completed program")
	}
	prog := src.Program()
	if prog == nil {
		t.Fatal("completed vault lost its program")
	}
	payload := encodeVault(t, src, 0)

	dst := New(&cfg, 0, 0, nil)
	if err := dst.DecodeCkpt(ckpt.NewDec(payload), []*isa.Program{prog}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dst.Program() != prog {
		t.Error("decode dropped the program reference")
	}

	if dst.Now() != src.Now() || dst.Done() != src.Done() {
		t.Errorf("restored clock/done = %d/%v, want %d/%v", dst.Now(), dst.Done(), src.Now(), src.Done())
	}
	if dst.Stats != src.Stats {
		t.Errorf("restored Stats differ:\n got %+v\nwant %+v", dst.Stats, src.Stats)
	}
	a, err := src.PE(0, 0).ReadBank(0x40, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.PE(0, 0).ReadBank(0x40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("restored bank reads %v, want %v", b, a)
	}
	// The restored vault must re-encode byte-identically: the image is
	// a verbatim snapshot, not a lossy projection.
	if string(encodeVault(t, dst, 0)) != string(payload) {
		t.Error("re-encoded checkpoint differs from the original")
	}
}

func TestVaultCkptRejections(t *testing.T) {
	cfg := sim.TestTiny()
	src := runSrc(t, cfg, ckptSrc)
	prog := src.Program()
	payload := encodeVault(t, src, 0)

	decode := func(cfg sim.Config, b []byte, progs []*isa.Program) error {
		return New(&cfg, 0, 0, nil).DecodeCkpt(ckpt.NewDec(b), progs)
	}

	if err := decode(cfg, payload[:16], []*isa.Program{prog}); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("truncated: err = %v, want ErrCorrupt", err)
	}
	// Program index outside the machine's table.
	if err := decode(cfg, payload, nil); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("dangling program index: err = %v, want ErrCorrupt", err)
	}
	// A payload cut inside its program index fails on the truncation,
	// before the index is resolved against an empty table.
	if err := decode(cfg, payload[:4], nil); !errors.Is(err, ckpt.ErrTruncated) {
		t.Errorf("truncated program index: err = %v, want ErrTruncated", err)
	}
	// A non-zero pc with no program is structurally impossible.
	orphan := encodeVault(t, src, -1)
	if err := decode(cfg, orphan, nil); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("pc without program: err = %v, want ErrCorrupt", err)
	}
	// A mismatched target configuration cannot accept the image.
	if err := decode(sim.OneVault(), payload, []*isa.Program{prog}); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("config mismatch: err = %v, want ErrCorrupt", err)
	}
}
