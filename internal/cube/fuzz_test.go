package cube

// Hostile-input hardening for the checkpoint decoder. The contract
// (decode into a fresh vault set, then swap; see checkpoint.go):
// Restore on arbitrary bytes either succeeds or fails with a typed
// error — ckpt.ErrCorrupt (which ErrTruncated wraps), ckpt.ErrVersion
// or ErrCheckpointConfig — and a failed Restore leaves the machine
// bit-identical to how it found it. Never a panic, never a
// half-restored machine. TestCheckpointDecodeHostile covers the
// container (length, version, CRC); FuzzCheckpointDecode seals every
// input, so its mutations reach the cube, vault, DRAM and NoC payload
// decoders behind the CRC.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ipim/internal/ckpt"
	"ipim/internal/sim"
)

// ckptSeeds returns an idle checkpoint of m and the first mid-run
// (run-section-carrying) checkpoint of a checkpointing run on it.
func ckptSeeds(t testing.TB, m *Machine) (idle, midrun []byte) {
	t.Helper()
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
	idle, midrun := ckptSeeds(t, newTinyMachine(t))
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

// FuzzCheckpointDecode throws arbitrary payloads, seeded with real
// ones, at Restore. Each input is sealed first, so no mutation is
// stopped by the container's CRC. The machine's memories, register
// files and I$ are shrunk until its checkpoints are about 5 KB: the
// fuzzer minimizes every new input it finds, at one Restore per try.
func FuzzCheckpointDecode(f *testing.F) {
	cfg := sim.TestTiny()
	cfg.VSMBytes, cfg.PGSMBytes = 64, 64
	cfg.BankBytes, cfg.RowBytes = 1024, 256
	cfg.DataRFEntries, cfg.AddrRFEntries, cfg.CtrlRFEntries = 8, 8, 4
	cfg.ICacheLines = 4
	seeder, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	idle, midrun := ckptSeeds(f, seeder)
	for _, sealed := range [][]byte{idle, midrun} {
		payload, err := ckpt.Open(sealed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	payload, _ := ckpt.Open(midrun)
	f.Add(payload[:len(payload)-7])                      // torn tail
	f.Add(append(append([]byte(nil), payload...), 0xAB)) // trailing byte
	f.Add([]byte(nil))                                   // empty payload
	m, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	baseline, err := m.CheckpointBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		err := m.Restore(ckpt.Seal(payload))
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
