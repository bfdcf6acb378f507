package engine

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"ipim/internal/dram"
	"ipim/internal/sim"
)

func testCfg() sim.Config { return sim.TestTiny() }

func newTestPE(t *testing.T) *PE {
	t.Helper()
	cfg := testCfg()
	return NewPE(&cfg)
}

func f32(v float32) uint32 { return math.Float32bits(v) }

func TestBankReadWriteRoundTrip(t *testing.T) {
	pe := newTestPE(t)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := pe.WriteBank(0x100, data); err != nil {
		t.Fatal(err)
	}
	got, err := pe.ReadBank(0x100, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("bank[%d] = %d, want %d", i, got[i], data[i])
		}
	}
	// Unwritten regions read zero.
	z, err := pe.ReadBank(0x200, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("unwritten bank bytes not zero")
		}
	}
}

func TestBankOutOfCapacityErrors(t *testing.T) {
	pe := newTestPE(t)
	if _, err := pe.ReadBank(uint32(testCfg().BankBytes), 16); err == nil {
		t.Fatal("read beyond bank capacity accepted")
	}
	if err := pe.WriteBank(uint32(testCfg().BankBytes-4), make([]byte, 16)); err == nil {
		t.Fatal("write beyond bank capacity accepted")
	}
}

func TestLoadStoreVector(t *testing.T) {
	pe := newTestPE(t)
	src := Vector{f32(1), f32(2), f32(3), f32(4)}
	var dst Vector
	if err := pe.StoreVector(0x40, &src, 0xF); err != nil {
		t.Fatal(err)
	}
	if err := pe.LoadVector(0x40, &dst, 0xF); err != nil {
		t.Fatal(err)
	}
	if dst != src {
		t.Fatalf("vector round trip: %v vs %v", dst, src)
	}
}

func TestPGSMRoundTripAndBounds(t *testing.T) {
	cfg := testCfg()
	pg := NewPG(&cfg, 0)
	src := Vector{5, 6, 7, 8}
	var dst Vector
	if err := pg.VectorToPGSM(0x20, &src, 0xF); err != nil {
		t.Fatal(err)
	}
	if err := pg.VectorFromPGSM(0x20, &dst, 0xF); err != nil {
		t.Fatal(err)
	}
	if dst != src {
		t.Fatalf("PGSM round trip: %v", dst)
	}
	if err := pg.WritePGSM(uint32(cfg.PGSMBytes-4), make([]byte, 16)); err == nil {
		t.Fatal("PGSM overflow write accepted")
	}
	if _, err := pg.ReadPGSM(uint32(cfg.PGSMBytes), 1); err == nil {
		t.Fatal("PGSM overflow read accepted")
	}
}

func TestNewPGShape(t *testing.T) {
	cfg := testCfg()
	pg := NewPG(&cfg, 1)
	if len(pg.PEs) != cfg.PEsPerPG {
		t.Fatalf("PG has %d PEs, want %d", len(pg.PEs), cfg.PEsPerPG)
	}
	if len(pg.PGSM) != cfg.PGSMBytes {
		t.Fatalf("PGSM %d bytes, want %d", len(pg.PGSM), cfg.PGSMBytes)
	}
}

// Property: StoreVector then LoadVector is identity for arbitrary lane
// bit patterns and aligned addresses.
func TestVectorBankRoundTripQuick(t *testing.T) {
	pe := newTestPE(t)
	f := func(a, b, c, d uint32, addrSeed uint16) bool {
		addr := (uint32(addrSeed) * 16) % uint32(testCfg().BankBytes-16)
		src := Vector{a, b, c, d}
		var dst Vector
		if err := pe.StoreVector(addr, &src, 0xF); err != nil {
			return false
		}
		if err := pe.LoadVector(addr, &dst, 0xF); err != nil {
			return false
		}
		return dst == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dmaBankToPGSMRef is the reference for DMABankToPGSM: one 128-bit
// beat through ReadBank and then WritePGSM.
func dmaBankToPGSMRef(pg *PG, pe *PE, bankAddr, pgsmAddr uint32) error {
	b, err := pe.ReadBank(bankAddr, dram.AccessBytes)
	if err != nil {
		return err
	}
	return pg.WritePGSM(pgsmAddr, b)
}

// dmaPGSMToBankRef is the reference for DMAPGSMToBank: one 128-bit beat
// through ReadPGSM and then WriteBank.
func dmaPGSMToBankRef(pg *PG, pe *PE, pgsmAddr, bankAddr uint32) error {
	b, err := pg.ReadPGSM(pgsmAddr, dram.AccessBytes)
	if err != nil {
		return err
	}
	return pe.WriteBank(bankAddr, b)
}

func TestDMABankToPGSMMatchesGeneric(t *testing.T) {
	cfg := sim.TestTiny()
	bank, sz := uint32(cfg.BankBytes), uint32(cfg.PGSMBytes)
	cases := []struct{ bankAddr, pgsmAddr uint32 }{
		{0x100, 0x20},  // aligned beat
		{0x104, 0x24},  // unaligned beat
		{bank - 16, 0}, // bank end, exact fit
		{bank - 8, 0},  // bank overflow
		{0, sz - 16},   // PGSM end, exact fit
		{0, sz - 8},    // PGSM overflow
	}
	for _, tc := range cases {
		pgA, peA, pgB, peB := pePair(t)
		errRef := dmaBankToPGSMRef(pgA, peA, tc.bankAddr, tc.pgsmAddr)
		errDMA := pgB.DMABankToPGSM(peB, tc.bankAddr, tc.pgsmAddr)
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
	cases := []struct{ pgsmAddr, bankAddr uint32 }{
		{0x20, 0x100},
		{0x2C, 0x10C},
		{sz - 16, 0},
		{sz - 4, 0},    // PGSM overflow: must error before touching the bank
		{0, bank - 16}, // bank end, exact fit
		{0, bank - 12}, // bank overflow
	}
	for _, tc := range cases {
		pgA, peA, pgB, peB := pePair(t)
		errRef := dmaPGSMToBankRef(pgA, peA, tc.pgsmAddr, tc.bankAddr)
		errDMA := pgB.DMAPGSMToBank(peB, tc.pgsmAddr, tc.bankAddr)
		if errText(errRef) != errText(errDMA) {
			t.Fatalf("%+v: ref err %q, dma err %q", tc, errText(errRef), errText(errDMA))
		}
		if !bytes.Equal(peA.bankSlice(), peB.bankSlice()) {
			t.Fatalf("%+v: bank bytes or growth diverged", tc)
		}
	}
}
