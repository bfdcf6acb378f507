package vault

// Reference checks for the shared ALU kernels. Cycle mode and
// functional mode both apply comp and calc_arf through
// execFuncComp / execFuncCalcARF, so a whole-program differential
// between the modes compares those kernels with themselves. These tests
// compare them instead with a plain reference that evaluates every
// selected lane of every selected PE on its own through isa.EvalLane
// (comp) or isa.EvalI (calc_arf), run on a second vault holding an
// identical register slab.

import (
	"fmt"
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
	for p := range got.peList {
		for r := 0; r < got.Cfg.DataRFEntries; r++ {
			for l := 0; l < isa.VecLanes; l++ {
				x := next()
				if x&0x100 == 0 {
					x = kernelPatterns[int(x>>9)%len(kernelPatterns)]
				}
				vec(got.dreg(r), p)[l], vec(ref.dreg(r), p)[l] = x, x
			}
		}
		for r := 0; r < got.Cfg.AddrRFEntries; r++ {
			x := int32(next())
			if r%2 == 0 {
				x %= 64
			}
			got.areg(r)[p], ref.areg(r)[p] = uint32(x), uint32(x)
		}
	}
}

// applyRef executes in on ref's masked PEs one PE and one lane at a
// time: a comp through isa.EvalLane, with every operand vector read
// before any lane is written, and a calc_arf through isa.EvalI.
func applyRef(ref *Vault, in *isa.Instruction) {
	for p := range ref.peList {
		if in.SimbMask&(1<<uint(p)) == 0 {
			continue
		}
		if in.Op == isa.OpCalcARF {
			a, acc := int32(ref.areg(in.Src1)[p]), int32(ref.areg(in.Dst)[p])
			b := int32(in.Imm)
			if !in.HasImm {
				b = int32(ref.areg(in.Src2)[p])
			}
			ref.areg(in.Dst)[p] = uint32(isa.EvalI(in.ALU, a, b, acc))
			continue
		}
		src1, src2 := *vec(ref.dreg(in.Src1), p), *vec(ref.dreg(in.Src2), p)
		dst := vec(ref.dreg(in.Dst), p)
		for l := 0; l < isa.VecLanes; l++ {
			if in.VecMask&(1<<uint(l)) == 0 {
				continue
			}
			b := src2[l]
			if in.Mode == isa.ModeVS {
				b = src2[0] // scalar-vector: lane 0 broadcast
			}
			dst[l] = isa.EvalLane(in.ALU, src1[l], b, dst[l])
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

// regsDiff describes the first register difference between the two
// vaults, or returns "" when they agree.
func regsDiff(got, ref *Vault) string {
	for p := range got.peList {
		for r := 0; r < got.Cfg.DataRFEntries; r++ {
			if g, w := *vec(got.dreg(r), p), *vec(ref.dreg(r), p); g != w {
				return fmt.Sprintf("PE %d d%d: kernel %#x, reference %#x", p, r, g, w)
			}
		}
		for r := 0; r < got.Cfg.AddrRFEntries; r++ {
			if g, w := got.areg(r)[p], ref.areg(r)[p]; g != w {
				return fmt.Sprintf("PE %d a%d: kernel %d, reference %d", p, r, int32(g), int32(w))
			}
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
// kernels and the per-PE, per-lane reference on 32- and 64-PE vaults.
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
		// calc_arf, with an immediate and with a register operand.
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
// the shared kernels and the per-PE, per-lane reference.
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
