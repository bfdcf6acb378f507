package engine_test

// The PE's register semantics (paper Sec. IV-E): comp on DataRF
// vectors, calc_arf on the AddrRF, the scalar/vector moves, reset,
// indirect addressing and the A0-A3 identifier registers. The vault
// holds every PE's registers in one slab, so these tests drive one PE
// through a single-vault executor and read its registers back through
// vault.Vault.Registers.

import (
	"encoding/binary"
	"math"
	"testing"

	"ipim/internal/engine"
	"ipim/internal/isa"
	"ipim/internal/sim"
	"ipim/internal/vault"
)

func f32(v float32) uint32 { return math.Float32bits(v) }

// runPE writes words to PE 0's bank from address 0, runs src on a fresh
// tiny vault and returns the vault.
func runPE(t *testing.T, words []uint32, src string) *vault.Vault {
	t.Helper()
	cfg := sim.TestTiny()
	v := vault.New(&cfg, 0, 0, nil)
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	if err := v.PE(0, 0).WriteBank(0, buf); err != nil {
		t.Fatal(err)
	}
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := v.RunPhase()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return v
		}
	}
}

func TestNewPEInitializesIDRegisters(t *testing.T) {
	cfg := sim.TestTiny()
	v := vault.New(&cfg, 3, 7, nil)
	_, a := v.Registers(1*cfg.PEsPerPG + 0) // PG 1, PE 0
	if a[isa.ARFPeID] != 0 || a[isa.ARFPgID] != 1 || a[isa.ARFVaultID] != 7 || a[isa.ARFChipID] != 3 {
		t.Fatalf("ID registers wrong: %v", a[:4])
	}
}

// loadD0D1D2 fills d0, d1 and d2 of PE 0 from the first 12 bank words.
const loadD0D1D2 = `
ld_rf d0, 0x0, sm=0x1
ld_rf d1, 0x10, sm=0x1
ld_rf d2, 0x20, sm=0x1
`

func TestCompVectorVector(t *testing.T) {
	v := runPE(t, []uint32{f32(1), f32(2), f32(3), f32(4), f32(10), f32(20), f32(30), f32(40)},
		loadD0D1D2+"comp fadd vv d2, d0, d1, sm=0x1\n")
	d, _ := v.Registers(0)
	want := engine.Vector{f32(11), f32(22), f32(33), f32(44)}
	if d[2] != want {
		t.Fatalf("comp fadd vv = %v, want %v", d[2], want)
	}
}

func TestCompScalarVectorBroadcastsLane0(t *testing.T) {
	v := runPE(t, []uint32{f32(1), f32(2), f32(3), f32(4), f32(100), f32(999), f32(999), f32(999)},
		loadD0D1D2+"comp fmul vs d2, d0, d1, sm=0x1\n")
	d, _ := v.Registers(0)
	want := engine.Vector{f32(100), f32(200), f32(300), f32(400)}
	if d[2] != want {
		t.Fatalf("comp fmul vs = %v, want %v", d[2], want)
	}
}

func TestCompVecMaskLeavesLanesUntouched(t *testing.T) {
	v := runPE(t, []uint32{f32(1), f32(1), f32(1), f32(1), f32(2), f32(2), f32(2), f32(2), f32(7), f32(7), f32(7), f32(7)},
		loadD0D1D2+"comp fadd vv d2, d0, d1, vm=0x5, sm=0x1\n")
	d, _ := v.Registers(0)
	want := engine.Vector{f32(3), f32(7), f32(3), f32(7)}
	if d[2] != want {
		t.Fatalf("masked comp = %v, want %v", d[2], want)
	}
}

func TestCompMacReadsAccumulator(t *testing.T) {
	v := runPE(t, []uint32{f32(2), f32(2), f32(2), f32(2), f32(3), f32(3), f32(3), f32(3), f32(1), f32(2), f32(3), f32(4)},
		loadD0D1D2+"comp fmac vv d2, d0, d1, sm=0x1\n")
	d, _ := v.Registers(0)
	want := engine.Vector{f32(7), f32(8), f32(9), f32(10)}
	if d[2] != want {
		t.Fatalf("fmac = %v, want %v", d[2], want)
	}
}

func TestCalcARFImmediateAndRegister(t *testing.T) {
	v := runPE(t, []uint32{100}, `
ld_rf d0, 0x0, sm=0x1
mov_arf a4, d0, lane=0, sm=0x1
calc_arf iadd a5, a4, #28, sm=0x1
calc_arf imul a6, a5, a5, sm=0x1
`)
	_, a := v.Registers(0)
	if a[5] != 128 {
		t.Fatalf("calc_arf imm = %d, want 128", a[5])
	}
	if a[6] != 128*128 {
		t.Fatalf("calc_arf reg = %d", a[6])
	}
}

func TestMovBetweenRegisterFiles(t *testing.T) {
	v := runPE(t, []uint32{11, 22, 33, 44}, `
ld_rf d2, 0x0, sm=0x1
mov_arf a7, d2, lane=2, sm=0x1
mov_drf d3, a7, lane=1, sm=0x1
`)
	d, a := v.Registers(0)
	if a[7] != 33 {
		t.Fatalf("mov_arf lane 2 = %d, want 33", a[7])
	}
	if d[3] != (engine.Vector{0, 33, 0, 0}) {
		t.Fatalf("mov_drf = %v", d[3])
	}
}

func TestResetZeroesEntry(t *testing.T) {
	v := runPE(t, []uint32{1, 2, 3, 4}, "ld_rf d2, 0x0, sm=0x1\nreset d2, sm=0x1\n")
	if d, _ := v.Registers(0); d[2] != (engine.Vector{}) {
		t.Fatalf("reset left %v", d[2])
	}
}

func TestEffectiveAddr(t *testing.T) {
	v := runPE(t, []uint32{0x1234, 5, 6, 7}, `
ld_rf d0, 0x0, sm=0x1
mov_arf a9, d0, lane=0, sm=0x1
st_rf d0, 0x40, sm=0x1
st_rf d0, @a9, sm=0x1
`)
	for _, addr := range []uint32{0x40, 0x1234} {
		b, err := v.PE(0, 0).ReadBank(addr, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(b); got != 0x1234 {
			t.Fatalf("bank word at %#x = %#x, want the stored 0x1234", addr, got)
		}
	}
}
