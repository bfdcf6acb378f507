package engine

import (
	"math"
	"testing"
	"testing/quick"

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
