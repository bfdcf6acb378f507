package vault

// Reference checks for the shared ALU kernels. Cycle mode and
// functional mode both apply comp and calc_arf through
// execFuncComp / execFuncCalcARF, so a whole-program differential
// between the modes compares those kernels with themselves. These tests
// compare them instead with the plain per-PE interpreters
// (engine.PE.Comp → isa.EvalLane, engine.PE.CalcARF → isa.EvalI) run on
// a second vault holding identical register files.

import (
	"fmt"
	"reflect"
	"testing"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

// refVaults builds two vaults with nPE PEs each (PEsPerPG 4) whose
// register files are filled identically from seed.
func refVaults(nPE int, seed uint32) (got, ref *Vault) {
	cfg := sim.Default()
	cfg.Cubes, cfg.VaultsPerCube = 1, 1
	cfg.PGsPerVault, cfg.PEsPerPG = nPE/4, 4
	cfg.DataRFEntries, cfg.AddrRFEntries = 8, 8
	cfg.BankBytes, cfg.VSMBytes = 1<<10, 1<<10
	got, ref = New(&cfg, 0, 0, nil), New(&cfg, 0, 0, nil)
	seedRegs(got, ref, seed)
	return got, ref
}

// seedRegs fills both vaults' DataRF lanes from kernelPatterns mixed with
// raw LCG words, and their AddrRFs with small and extreme integers.
func seedRegs(got, ref *Vault, seed uint32) {
	u := seed | 1
	next := func() uint32 { u = u*1664525 + 1013904223; return u }
	for i, pe := range got.peFlat {
		rpe := ref.peFlat[i]
		for r := range pe.DataRF {
			for l := range pe.DataRF[r] {
				x := next()
				if x&0x100 == 0 {
					x = kernelPatterns[int(x>>9)%len(kernelPatterns)]
				}
				pe.DataRF[r][l], rpe.DataRF[r][l] = x, x
			}
		}
		for r := range pe.AddrRF {
			x := int32(next())
			if r%2 == 0 {
				x %= 64
			}
			pe.AddrRF[r], rpe.AddrRF[r] = x, x
		}
	}
}

// applyRef executes in on ref's masked PEs through the per-PE
// interpreters.
func applyRef(ref *Vault, in *isa.Instruction) {
	for i, pe := range ref.peFlat {
		if in.SimbMask&(1<<uint(i)) == 0 {
			continue
		}
		if in.Op == isa.OpComp {
			pe.Comp(in)
		} else {
			pe.CalcARF(in)
		}
	}
}

// applyKernel executes in on got's masked PEs through the shared
// kernels.
func applyKernel(got *Vault, in *isa.Instruction) {
	if in.Op == isa.OpComp {
		got.execFuncComp(in)
	} else {
		got.execFuncCalcARF(in)
	}
}

// regsDiff describes the first register-file difference between the
// two vaults, or returns "" when they agree.
func regsDiff(got, ref *Vault) string {
	for i, pe := range got.peFlat {
		rpe := ref.peFlat[i]
		for r := range pe.DataRF {
			if pe.DataRF[r] != rpe.DataRF[r] {
				return fmt.Sprintf("PE %d d%d: kernel %#x, reference %#x", i, r, pe.DataRF[r], rpe.DataRF[r])
			}
		}
		if !reflect.DeepEqual(pe.AddrRF, rpe.AddrRF) {
			return fmt.Sprintf("PE %d AddrRF: kernel %v, reference %v", i, pe.AddrRF, rpe.AddrRF)
		}
	}
	return ""
}

// refSimbMasks are the SIMB masks each vault is swept with: every PE,
// alternating PEs, one PE, every PE but the last, and a mask whose only
// bits lie beyond a 32-PE vault.
func refSimbMasks(nPE int) []uint64 {
	all := uint64(1)<<uint(nPE) - 1
	return []uint64{^uint64(0), all, 0x5555555555555555, 1 << uint(nPE-1), all >> 1, 0xFFFFFFFF00000000}
}

// TestExecFuncCompVsPEComp sweeps comp and calc_arf through the shared
// kernels and the per-PE interpreters on 32- and 64-PE vaults.
func TestExecFuncCompVsPEComp(t *testing.T) {
	type regs struct{ dst, s1, s2 int }
	aliases := []regs{{2, 0, 1}, {0, 0, 1}, {1, 0, 1}, {3, 3, 3}}
	for _, nPE := range []int{32, 64} {
		got, ref := refVaults(nPE, uint32(nPE))
		seed := uint32(0)
		for op := isa.ALUOp(1); op.ValidForComp(); op++ {
			for _, mode := range []isa.Mode{isa.ModeVV, isa.ModeVS} {
				for _, rg := range aliases {
					for _, vm := range []uint8{isa.VecMaskAll, 0x5, 0xA, 0x1, 0} {
						for _, sm := range refSimbMasks(nPE) {
							seed++
							seedRegs(got, ref, seed)
							in := &isa.Instruction{Op: isa.OpComp, ALU: op, Mode: mode,
								Dst: rg.dst, Src1: rg.s1, Src2: rg.s2, VecMask: vm, SimbMask: sm}
							applyKernel(got, in)
							applyRef(ref, in)
							if d := regsDiff(got, ref); d != "" {
								t.Fatalf("%d PEs comp %v %v d%d,d%d,d%d vm=%#x sm=%#x: %s",
									nPE, op, mode, rg.dst, rg.s1, rg.s2, vm, sm, d)
							}
						}
					}
				}
			}
		}
		// calc_arf: the iadd-immediate fused loop and the generic path.
		for op := isa.ALUOp(1); op.ValidForComp(); op++ {
			if !op.ValidForCalc() {
				continue
			}
			for _, imm := range []struct {
				has bool
				v   int64
			}{{true, 12}, {true, -4}, {true, 31}, {false, 0}} {
				for _, sm := range refSimbMasks(nPE) {
					seed++
					seedRegs(got, ref, seed)
					in := &isa.Instruction{Op: isa.OpCalcARF, ALU: op, Dst: 1, Src1: 0, Src2: 2,
						Imm: imm.v, HasImm: imm.has, SimbMask: sm}
					applyKernel(got, in)
					applyRef(ref, in)
					if d := regsDiff(got, ref); d != "" {
						t.Fatalf("%d PEs calc_arf %v imm=%v/%d sm=%#x: %s", nPE, op, imm.has, imm.v, sm, d)
					}
				}
			}
		}
	}
}

// FuzzExecFuncVsEvalLane drives one comp or calc_arf instruction with
// fuzzer-chosen op, mode, registers, masks and register contents through
// the shared kernels and the per-PE reference interpreters.
func FuzzExecFuncVsEvalLane(f *testing.F) {
	f.Add(uint8(isa.FAdd), false, uint8(2), uint8(0), uint8(1), uint8(0xF), ^uint64(0), false, uint32(1), false, int32(0))
	f.Add(uint8(isa.FMac), true, uint8(1), uint8(1), uint8(1), uint8(0xF), uint64(0xFFFFFFFF), true, uint32(2), false, int32(0))
	f.Add(uint8(isa.IAdd), true, uint8(0), uint8(3), uint8(0), uint8(0x6), uint64(0x5555), false, uint32(3), false, int32(0))
	f.Add(uint8(isa.F2I), false, uint8(4), uint8(5), uint8(6), uint8(0xF), uint64(1)<<40, true, uint32(4), false, int32(0))
	f.Add(uint8(isa.IAdd), false, uint8(1), uint8(0), uint8(2), uint8(0), ^uint64(0), true, uint32(5), true, int32(-8))
	f.Add(uint8(isa.Shl), false, uint8(3), uint8(3), uint8(2), uint8(0), uint64(0xF0F0), false, uint32(6), true, int32(33))
	vaults := map[int][2]*Vault{}
	f.Fuzz(func(t *testing.T, op uint8, vs bool, dst, s1, s2, vm uint8, sm uint64, wide bool, seed uint32, calc bool, imm int32) {
		nPE := 32
		if wide {
			nPE = 64
		}
		pair, ok := vaults[nPE]
		if !ok {
			g, r := refVaults(nPE, 0)
			pair = [2]*Vault{g, r}
			vaults[nPE] = pair
		}
		got, ref := pair[0], pair[1]
		seedRegs(got, ref, seed)
		in := &isa.Instruction{Op: isa.OpComp, ALU: isa.ALUOp(1 + int(op)%isa.NumALUOps),
			Dst: int(dst) % 8, Src1: int(s1) % 8, Src2: int(s2) % 8, VecMask: vm & isa.VecMaskAll, SimbMask: sm}
		if vs {
			in.Mode = isa.ModeVS
		}
		if calc {
			if !in.ALU.ValidForCalc() {
				return
			}
			in.Op, in.Mode, in.VecMask = isa.OpCalcARF, isa.ModeVV, 0
			in.Imm, in.HasImm = int64(imm), imm%2 == 0
		}
		applyKernel(got, in)
		applyRef(ref, in)
		if d := regsDiff(got, ref); d != "" {
			t.Fatalf("%d PEs %+v: %s", nPE, *in, d)
		}
	})
}
