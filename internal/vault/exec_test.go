package vault

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

// runSrc assembles and runs a program on a fresh single vault with the
// given config, returning the vault for inspection.
func runSrc(t *testing.T, cfg sim.Config, src string) *Vault {
	t.Helper()
	v := New(&cfg, 0, 0, nil)
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

func f32le(v float32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
	return b[:]
}

func TestSetiVSMAndRdVSM(t *testing.T) {
	cfg := sim.TestTiny()
	v := runSrc(t, cfg, `
seti_vsm 0x0, #1065353216   ; 1.0f bit pattern
seti_vsm 0x4, #1073741824   ; 2.0f
rd_vsm d1, 0x0, sm=0x1
st_rf d1, 0x40, sm=0x1
`)
	b, err := v.PE(0, 0).ReadBank(0x40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32frombits(binary.LittleEndian.Uint32(b)) != 1.0 {
		t.Fatalf("lane0 = %x", b[:4])
	}
	if math.Float32frombits(binary.LittleEndian.Uint32(b[4:])) != 2.0 {
		t.Fatalf("lane1 = %x", b[4:8])
	}
}

func TestWrVSMSerializesOnTSV(t *testing.T) {
	cfg := sim.TestTiny() // 4 PEs per vault
	// One wr_vsm with all PEs masked: 4 TSV beats.
	v := runSrc(t, cfg, `wr_vsm d0, 0x0, sm=*`)
	if v.Stats.TSVBeats != int64(cfg.PEsPerVault()) {
		t.Fatalf("TSV beats = %d, want %d", v.Stats.TSVBeats, cfg.PEsPerVault())
	}
	// Serialization: completion grows with PE count.
	cfg2 := cfg
	cfg2.PGsPerVault = 1 // 2 PEs
	v2 := runSrc(t, cfg2, `wr_vsm d0, 0x0, sm=*`)
	if v.Stats.Cycles <= v2.Stats.Cycles {
		t.Fatalf("4-PE wr_vsm (%d cyc) not slower than 2-PE (%d)", v.Stats.Cycles, v2.Stats.Cycles)
	}
}

func TestMovRoundTripThroughARF(t *testing.T) {
	cfg := sim.TestTiny()
	v := runSrc(t, cfg, `
calc_arf iadd a4, a0, #100, sm=*   ; a4 = peID + 100
mov_drf d1, a4, lane=3, sm=*
mov_arf a5, d1, lane=3, sm=*
calc_arf shl a6, a5, #1, sm=*
mov_drf d2, a6, lane=0, sm=*
st_rf d2, 0x0, sm=*
`)
	// PE (1,1) of tiny config: peID=1 -> (1+100)*2 = 202 in lane 0.
	b, err := v.PE(1, 1).ReadBank(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := int32(binary.LittleEndian.Uint32(b)); got != 202 {
		t.Fatalf("lane0 = %d, want 202", got)
	}
}

func TestResetAndCompChain(t *testing.T) {
	cfg := sim.TestTiny()
	v := runSrc(t, cfg, `
reset d1, sm=*
comp icmpeq vv d2, d1, d1, vm=0xf, sm=*   ; 1 where equal (all lanes)
comp iadd vv d3, d2, d2, vm=0xf, sm=*
st_rf d3, 0x0, sm=0x1
`)
	b, _ := v.PE(0, 0).ReadBank(0, 16)
	for l := 0; l < 4; l++ {
		if got := binary.LittleEndian.Uint32(b[4*l:]); got != 2 {
			t.Fatalf("lane %d = %d, want 2", l, got)
		}
	}
}

func TestPGSMBlockMoves(t *testing.T) {
	cfg := sim.TestTiny()
	v := New(&cfg, 0, 0, nil)
	// Preload PE(0,0) bank.
	if err := v.PE(0, 0).WriteBank(0x100, f32le(7)); err != nil {
		t.Fatal(err)
	}
	p, err := isa.Assemble(`
ld_pgsm 0x100, 0x20, sm=0x1   ; bank -> PGSM
st_pgsm 0x200, 0x20, sm=0x1   ; PGSM -> bank
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunPhase(); err != nil {
		t.Fatal(err)
	}
	b, _ := v.PE(0, 0).ReadBank(0x200, 4)
	if math.Float32frombits(binary.LittleEndian.Uint32(b)) != 7 {
		t.Fatalf("block move lost data: %x", b)
	}
	v.FoldDRAMStats()
	if v.Stats.DRAM.Reads == 0 || v.Stats.DRAM.Writes == 0 {
		t.Fatalf("PGSM block moves bypassed the bank: %+v", v.Stats.DRAM)
	}
}

func TestUnalignedLoadCostsTwoColumns(t *testing.T) {
	cfg := sim.TestTiny()
	aligned := runSrc(t, cfg, `ld_rf d0, 0x0, sm=0x1`)
	aligned.FoldDRAMStats()
	unaligned := runSrc(t, cfg, `
calc_arf iadd a4, a0, #8, sm=0x1
ld_rf d0, @a4, sm=0x1
`)
	unaligned.FoldDRAMStats()
	if aligned.Stats.DRAM.Reads != 1 {
		t.Fatalf("aligned load issued %d column reads", aligned.Stats.DRAM.Reads)
	}
	if unaligned.Stats.DRAM.Reads != 2 {
		t.Fatalf("unaligned load issued %d column reads, want 2", unaligned.Stats.DRAM.Reads)
	}
}

func TestBranchPenaltyCharged(t *testing.T) {
	cfg := sim.TestTiny()
	v := runSrc(t, cfg, `
seti_crf c1, #5
seti_crf c0, =loop
loop:
calc_crf isub c1, c1, #1
cjump c1, c0
`)
	// 4 taken branches x penalty cycles.
	want := int64(4 * cfg.BranchPenalty)
	if v.Stats.StallCycles[sim.StallBranch] != want {
		t.Fatalf("branch stall = %d, want %d", v.Stats.StallCycles[sim.StallBranch], want)
	}
	if v.CRF[1] != 0 {
		t.Fatalf("loop counter = %d", v.CRF[1])
	}
}

func TestPonBChargesTSVOnBankTraffic(t *testing.T) {
	cfg := sim.TestTiny()
	cfg.PonB = true
	v := runSrc(t, cfg, `
ld_rf d0, 0x0, sm=*
ld_rf d1, 0x10, sm=*
st_rf d0, 0x100, sm=*
`)
	if v.Stats.TSVBeats == 0 {
		t.Fatal("PonB bank traffic did not cross the TSVs")
	}
	// 3 instructions x 4 PEs = 12 beats.
	if v.Stats.TSVBeats != 12 {
		t.Fatalf("TSV beats = %d, want 12", v.Stats.TSVBeats)
	}
}

func TestEmptySimbMaskCompletesImmediately(t *testing.T) {
	cfg := sim.TestTiny()
	v := runSrc(t, cfg, `ld_rf d0, 0x0, sm=0x0`)
	v.FoldDRAMStats()
	if v.Stats.DRAM.Reads != 0 {
		t.Fatalf("empty mask generated %d bank reads", v.Stats.DRAM.Reads)
	}
}

// TestEmptyVecMaskTouchesNoColumn: an RF transfer whose vector mask
// selects no lane costs the same at any address, aligned or not, and
// issues no DRAM request and no PE bus beat, even where its lane span
// would wrap past 2^32.
func TestEmptyVecMaskTouchesNoColumn(t *testing.T) {
	cfg := sim.TestTiny()
	for _, op := range []string{"ld_rf", "st_rf"} {
		var want sim.Stats
		for i, addr := range []uint32{0x100, 0x104, 0x108, 0x10C, 0xFFFFFFF8, 0xFFFFFFFC} {
			v := runSrc(t, cfg, fmt.Sprintf("%s d0, %#x, vm=0x0, sm=*", op, addr))
			v.FoldDRAMStats()
			s := v.Stats
			if s.DRAM.Reads != 0 || s.DRAM.Writes != 0 || s.PEBusBeats != 0 {
				t.Fatalf("%s at %#x: %d reads, %d writes, %d PE bus beats; want none",
					op, addr, s.DRAM.Reads, s.DRAM.Writes, s.PEBusBeats)
			}
			if i == 0 {
				want = s
			} else if !reflect.DeepEqual(s, want) {
				t.Fatalf("%s at %#x: stats %+v differ from those at 0x100 %+v", op, addr, s, want)
			}
		}
	}
}

func TestVecMaskedVSMBoundsCheck(t *testing.T) {
	cfg := sim.TestTiny()
	v := New(&cfg, 0, 0, nil)
	// Lane-0-only access at the very last word is legal...
	src := `rd_vsm d0, 0x3fffc, sm=0x1, vm=0x1`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p.Finalize()
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunPhase(); err != nil {
		t.Fatalf("lane-0 access at VSM end rejected: %v", err)
	}
	// ...but a full-vector access there is out of bounds.
	v2 := New(&cfg, 0, 0, nil)
	p2, _ := isa.Assemble(`rd_vsm d0, 0x3fffc, sm=0x1`)
	p2.Finalize()
	if err := v2.Load(p2); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.RunPhase(); err == nil {
		t.Fatal("full-vector VSM overflow accepted")
	}
}
