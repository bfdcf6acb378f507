package engine

// The vector movers against a per-lane reference. Each selected lane l
// of a mover's vector moves on its own, through ReadBank, WriteBank,
// ReadPGSM or WritePGSM at addr+4l mod 2^32, in lane order, stopping at
// the first error. Over every vector mask, at in-bounds, exact-fit,
// overflowing and 2^32-wrapping addresses, a mover must leave the same
// vector, bank and PGSM bytes, bank growth and error text as that
// reference.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

// pePair returns two identically seeded PEs in their PGs.
func pePair(t *testing.T) (*PG, *PE, *PG, *PE) {
	t.Helper()
	cfg := sim.TestTiny()
	pgA := NewPG(&cfg, 0)
	pgB := NewPG(&cfg, 0)
	peA, peB := pgA.PEs[0], pgB.PEs[0]
	for _, pe := range []*PE{peA, peB} {
		var buf [1024]byte
		for i := range buf {
			buf[i] = byte(i*13 + 7)
		}
		if err := pe.WriteBank(0, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	for _, pg := range []*PG{pgA, pgB} {
		for i := range pg.PGSM {
			pg.PGSM[i] = byte(i*31 + 5)
		}
	}
	return pgA, peA, pgB, peB
}

// errText renders an error for equality comparison (nil-safe).
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// seedVector is the register contents each side of a mover test starts
// from.
func seedVector() Vector { return Vector{0x5A5A0300, 0x5A5A0301, 0x5A5A0302, 0x5A5A0303} }

// vectorMover is the shape every vector mover shares once bound to its
// PG and PE.
type vectorMover func(pg *PG, pe *PE, addr uint32, v *Vector, vmask uint8) error

// perLane builds a reference mover that moves each selected lane by
// itself with lane.
func perLane(lane func(pg *PG, pe *PE, addr uint32, w *uint32) error) vectorMover {
	return func(pg *PG, pe *PE, addr uint32, v *Vector, vmask uint8) error {
		for l := range isa.VecLanes {
			if vmask&(1<<l) == 0 {
				continue
			}
			if err := lane(pg, pe, addr+uint32(4*l), &v[l]); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestVectorMoversMatchPerLaneReference(t *testing.T) {
	cfg := sim.TestTiny()
	bank, sz := uint32(cfg.BankBytes), uint32(cfg.PGSMBytes)
	wrap := []uint32{0xFFFFFFF0, 0xFFFFFFF4, 0xFFFFFFF8, 0xFFFFFFFC}
	bankAddrs := append([]uint32{0, 4, 20, 0x100, bank - 16, bank - 12, bank - 8, bank - 4, bank}, wrap...)
	pgsmAddrs := append([]uint32{0, 12, 0x100, sz - 16, sz - 12, sz - 8, sz - 4, sz}, wrap...)
	cases := []struct {
		name  string
		addrs []uint32
		move  vectorMover
		ref   vectorMover
	}{
		{"LoadVector", bankAddrs,
			func(_ *PG, pe *PE, addr uint32, v *Vector, vmask uint8) error { return pe.LoadVector(addr, v, vmask) },
			perLane(func(_ *PG, pe *PE, addr uint32, w *uint32) error {
				b, err := pe.ReadBank(addr, 4)
				if err == nil {
					*w = binary.LittleEndian.Uint32(b)
				}
				return err
			})},
		{"StoreVector", bankAddrs,
			func(_ *PG, pe *PE, addr uint32, v *Vector, vmask uint8) error { return pe.StoreVector(addr, v, vmask) },
			perLane(func(_ *PG, pe *PE, addr uint32, w *uint32) error {
				return pe.WriteBank(addr, binary.LittleEndian.AppendUint32(nil, *w))
			})},
		{"VectorFromPGSM", pgsmAddrs,
			func(pg *PG, _ *PE, addr uint32, v *Vector, vmask uint8) error {
				return pg.VectorFromPGSM(addr, v, vmask)
			},
			perLane(func(pg *PG, _ *PE, addr uint32, w *uint32) error {
				b, err := pg.ReadPGSM(addr, 4)
				if err == nil {
					*w = binary.LittleEndian.Uint32(b)
				}
				return err
			})},
		{"VectorToPGSM", pgsmAddrs,
			func(pg *PG, _ *PE, addr uint32, v *Vector, vmask uint8) error { return pg.VectorToPGSM(addr, v, vmask) },
			perLane(func(pg *PG, _ *PE, addr uint32, w *uint32) error {
				return pg.WritePGSM(addr, binary.LittleEndian.AppendUint32(nil, *w))
			})},
	}
	for _, c := range cases {
		for _, addr := range c.addrs {
			for vmask := range uint8(1 << isa.VecLanes) {
				label := fmt.Sprintf("%s addr %#x vm %#x", c.name, addr, vmask)
				pgA, peA, pgB, peB := pePair(t)
				va, vb := seedVector(), seedVector()
				errMove := c.move(pgA, peA, addr, &va, vmask)
				errRef := c.ref(pgB, peB, addr, &vb, vmask)
				if errText(errMove) != errText(errRef) {
					t.Fatalf("%s: mover err %q, reference err %q", label, errText(errMove), errText(errRef))
				}
				if va != vb {
					t.Fatalf("%s: vectors diverged: %#x vs %#x", label, va, vb)
				}
				if !bytes.Equal(peA.bankSlice(), peB.bankSlice()) {
					t.Fatalf("%s: bank bytes or growth diverged (%d vs %d bytes held)",
						label, len(peA.bankSlice()), len(peB.bankSlice()))
				}
				if !bytes.Equal(pgA.PGSM, pgB.PGSM) {
					t.Fatalf("%s: PGSM bytes diverged", label)
				}
			}
		}
	}
}
