package cube

// Hostile-input hardening for the checkpoint decoder. The contract
// (decode-then-apply, see checkpoint.go): Restore on arbitrary bytes
// either succeeds or fails with a typed error — ckpt.ErrCorrupt (which
// ErrTruncated wraps), ckpt.ErrVersion or ErrCheckpointConfig — and a
// failed Restore leaves the machine bit-identical to how it found it.
// Never a panic, never a half-restored machine.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ipim/internal/ckpt"
	"ipim/internal/sim"
)

// ckptSeeds builds the seed corpus: an idle-machine checkpoint and a
// mid-run (run-section-carrying) checkpoint from a checkpointing run.
func ckptSeeds(t testing.TB) (idle, midrun []byte) {
	t.Helper()
	m := newTinyMachine(t)
	idle, err := m.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.RunOptions{
		CheckpointEvery: 1,
		CheckpointSink: func(data []byte) error {
			if midrun == nil {
				midrun = append([]byte(nil), data...)
			}
			return nil
		},
	}
	if _, err := m.RunSameContext(context.Background(), mustAssemble(t, brightenSrc), opts); err != nil {
		t.Fatal(err)
	}
	if midrun == nil {
		t.Fatal("checkpointing run produced no checkpoint")
	}
	return idle, midrun
}

// TestCheckpointDecodeHostile pins the typed error for each corruption
// class a crash can realistically produce.
func TestCheckpointDecodeHostile(t *testing.T) {
	idle, midrun := ckptSeeds(t)
	m := newTinyMachine(t)
	baseline, err := m.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte, want error) {
		t.Helper()
		if err := m.Restore(data); !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
		after, err := m.CheckpointBytes()
		if err != nil {
			t.Fatalf("%s: checkpoint after failed restore: %v", name, err)
		}
		if !bytes.Equal(baseline, after) {
			t.Errorf("%s: failed restore mutated the machine", name)
		}
	}

	check("empty", nil, ckpt.ErrTruncated)
	check("short header", idle[:10], ckpt.ErrTruncated)
	torn := append([]byte(nil), midrun...)
	check("torn tail", torn[:len(torn)-5], ckpt.ErrTruncated)
	ver := append([]byte(nil), idle...)
	ver[8] ^= 0xFF // version field, after the 8-byte magic
	check("version flip", ver, ckpt.ErrVersion)
	crc := append([]byte(nil), midrun...)
	crc[len(crc)-1] ^= 0x01
	check("CRC flip", crc, ckpt.ErrCorrupt)
	payload := append([]byte(nil), midrun...)
	payload[len(payload)/2] ^= 0x10 // body flip: CRC catches it
	check("payload flip", payload, ckpt.ErrCorrupt)
	check("trailing garbage", append(append([]byte(nil), idle...), 0xAB), ckpt.ErrCorrupt)

	// Wrong-config checkpoint: structurally valid, rejected by digest.
	other, err := New(sim.TestTinyOneVault())
	if err != nil {
		t.Fatal(err)
	}
	otherData, err := other.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	check("config mismatch", otherData, ErrCheckpointConfig)
}

// FuzzCheckpointDecode throws arbitrary mutations of real checkpoints
// at Restore.
func FuzzCheckpointDecode(f *testing.F) {
	m, err := New(sim.TestTiny())
	if err != nil {
		f.Fatal(err)
	}
	idle, midrun := ckptSeeds(f)
	f.Add(idle)
	f.Add(midrun)
	f.Add(idle[:len(idle)-7]) // torn tail
	ver := append([]byte(nil), idle...)
	ver[8] ^= 0x01
	f.Add(ver) // schema version rejection
	f.Add([]byte("IPIMCKPT"))
	baseline, err := m.CheckpointBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := m.Restore(data)
		if err == nil {
			// A structurally valid checkpoint restored; rewind to the
			// known baseline for the next iteration.
			if err := m.Restore(baseline); err != nil {
				t.Fatalf("baseline re-restore: %v", err)
			}
			return
		}
		if !errors.Is(err, ckpt.ErrCorrupt) && !errors.Is(err, ckpt.ErrVersion) && !errors.Is(err, ErrCheckpointConfig) {
			t.Fatalf("untyped restore error: %v", err)
		}
		after, cerr := m.CheckpointBytes()
		if cerr != nil {
			t.Fatalf("checkpoint after failed restore: %v", cerr)
		}
		if !bytes.Equal(baseline, after) {
			t.Fatal("failed restore half-mutated the machine")
		}
	})
}
