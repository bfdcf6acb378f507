package engine

// Differential tests for the functional-mode full-mask movers and DMA
// copies (funcfast.go): each specialized accessor must be byte- and
// error-identical to the generic masked accessor it shortcuts, on
// in-bounds spans, exact-fit boundaries, out-of-bounds spans, and
// 32-bit address wraparound.

import (
	"bytes"
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

// comparePE fails where two PEs' low bank bytes differ.
func comparePE(t *testing.T, label string, a, b *PE) {
	t.Helper()
	ba, err := a.ReadBank(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.ReadBank(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("%s: low bank bytes diverged", label)
	}
}

func TestLoadVectorFullMatchesGeneric(t *testing.T) {
	cfg := sim.TestTiny()
	bank := uint32(cfg.BankBytes)
	addrs := []uint32{0, 4, 20, 100, bank - 16, bank - 15, bank - 1, 0xFFFFFFF0, 0xFFFFFFFC}
	for _, addr := range addrs {
		_, peA, _, peB := pePair(t)
		va, vb := seedVector(), seedVector()
		errGen := peA.LoadVector(addr, &va, isa.VecMaskAll)
		errFull := peB.LoadVectorFull(addr, &vb)
		if errText(errGen) != errText(errFull) {
			t.Fatalf("addr %#x: generic err %q, full err %q", addr, errText(errGen), errText(errFull))
		}
		if va != vb {
			t.Fatalf("addr %#x: vectors diverged: %v vs %v", addr, va, vb)
		}
		comparePE(t, fmt.Sprintf("load addr %#x", addr), peA, peB)
	}
}

func TestStoreVectorFullMatchesGeneric(t *testing.T) {
	cfg := sim.TestTiny()
	bank := uint32(cfg.BankBytes)
	addrs := []uint32{0, 8, 36, bank - 16, bank - 15, 0xFFFFFFF4}
	for _, addr := range addrs {
		_, peA, _, peB := pePair(t)
		va, vb := seedVector(), seedVector()
		errGen := peA.StoreVector(addr, &va, isa.VecMaskAll)
		errFull := peB.StoreVectorFull(addr, &vb)
		if errText(errGen) != errText(errFull) {
			t.Fatalf("addr %#x: generic err %q, full err %q", addr, errText(errGen), errText(errFull))
		}
		comparePE(t, fmt.Sprintf("store addr %#x", addr), peA, peB)
		if errGen == nil && addr < bank-16 {
			got, err := peA.ReadBank(addr, 16)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, make([]byte, 16)) {
				t.Fatalf("addr %#x: store wrote nothing", addr)
			}
		}
	}
}

func TestVectorPGSMFullMatchesGeneric(t *testing.T) {
	cfg := sim.TestTiny()
	sz := uint32(cfg.PGSMBytes)
	addrs := []uint32{0, 12, sz - 16, sz - 15, sz, 0xFFFFFFF8}
	for _, addr := range addrs {
		pgA, peA, pgB, peB := pePair(t)
		va, vb := seedVector(), seedVector()
		errGen := pgA.VectorToPGSM(addr, &va, isa.VecMaskAll)
		errFull := pgB.VectorToPGSMFull(addr, &vb)
		if errText(errGen) != errText(errFull) {
			t.Fatalf("to-PGSM addr %#x: generic err %q, full err %q", addr, errText(errGen), errText(errFull))
		}
		if !bytes.Equal(pgA.PGSM, pgB.PGSM) {
			t.Fatalf("to-PGSM addr %#x: PGSM bytes diverged", addr)
		}
		errGen = pgA.VectorFromPGSM(addr, &va, isa.VecMaskAll)
		errFull = pgB.VectorFromPGSMFull(addr, &vb)
		if errText(errGen) != errText(errFull) {
			t.Fatalf("from-PGSM addr %#x: generic err %q, full err %q", addr, errText(errGen), errText(errFull))
		}
		if va != vb {
			t.Fatalf("from-PGSM addr %#x: vectors diverged: %v vs %v", addr, va, vb)
		}
		comparePE(t, fmt.Sprintf("from-PGSM addr %#x", addr), peA, peB)
	}
}

// dmaBankToPGSMRef is the generic reference the DMA fast path replaces:
// the exact ReadBank+WritePGSM sequence the instruction-major loop runs.
func dmaBankToPGSMRef(pg *PG, pe *PE, bankAddr, pgsmAddr uint32, n int) error {
	b, err := pe.ReadBank(bankAddr, n)
	if err != nil {
		return err
	}
	return pg.WritePGSM(pgsmAddr, b)
}

func dmaPGSMToBankRef(pg *PG, pe *PE, pgsmAddr, bankAddr uint32, n int) error {
	b, err := pg.ReadPGSM(pgsmAddr, n)
	if err != nil {
		return err
	}
	return pe.WriteBank(bankAddr, b)
}

func TestDMABankToPGSMMatchesGeneric(t *testing.T) {
	cfg := sim.TestTiny()
	bank, sz := uint32(cfg.BankBytes), uint32(cfg.PGSMBytes)
	cases := []struct {
		bankAddr, pgsmAddr uint32
		n                  int
	}{
		{0x100, 0x20, 16},  // the DRAM column beat (fixed-size copy)
		{0x104, 0x24, 16},  // unaligned beat
		{0x40, 0x40, 7},    // odd size: copy path
		{bank - 16, 0, 16}, // bank end, exact fit
		{bank - 8, 0, 16},  // bank overflow
		{0, sz - 16, 16},   // PGSM end, exact fit
		{0, sz - 8, 16},    // PGSM overflow
	}
	for _, tc := range cases {
		pgA, peA, pgB, peB := pePair(t)
		errRef := dmaBankToPGSMRef(pgA, peA, tc.bankAddr, tc.pgsmAddr, tc.n)
		errDMA := pgB.DMABankToPGSM(peB, tc.bankAddr, tc.pgsmAddr, tc.n)
		if errText(errRef) != errText(errDMA) {
			t.Fatalf("%+v: ref err %q, dma err %q", tc, errText(errRef), errText(errDMA))
		}
		if !bytes.Equal(pgA.PGSM, pgB.PGSM) {
			t.Fatalf("%+v: PGSM bytes diverged", tc)
		}
	}
}

func TestDMAPGSMToBankMatchesGeneric(t *testing.T) {
	cfg := sim.TestTiny()
	bank, sz := uint32(cfg.BankBytes), uint32(cfg.PGSMBytes)
	cases := []struct {
		pgsmAddr, bankAddr uint32
		n                  int
	}{
		{0x20, 0x100, 16},
		{0x2C, 0x10C, 16},
		{0x40, 0x40, 5},
		{sz - 16, 0, 16},
		{sz - 4, 0, 16},    // PGSM overflow: must error before touching the bank
		{0, bank - 16, 16}, // bank end, exact fit
		{0, bank - 12, 16}, // bank overflow
	}
	for _, tc := range cases {
		pgA, peA, pgB, peB := pePair(t)
		errRef := dmaPGSMToBankRef(pgA, peA, tc.pgsmAddr, tc.bankAddr, tc.n)
		errDMA := pgB.DMAPGSMToBank(peB, tc.pgsmAddr, tc.bankAddr, tc.n)
		if errText(errRef) != errText(errDMA) {
			t.Fatalf("%+v: ref err %q, dma err %q", tc, errText(errRef), errText(errDMA))
		}
		comparePE(t, fmt.Sprintf("%+v", tc), peA, peB)
	}
}
