package ipim

// FuzzFunctionalVsTiming fuzzes the functional/timing split at the
// SIMB-source level: any program the assembler accepts must either run
// to completion in BOTH modes with bit-identical architectural state —
// control registers, address/data register files, vault scratch
// memories, PG scratchpads, bank bytes — or fail in both modes with the
// same error at the same program counter. `go test` exercises the seed
// corpus; scripts/ci.sh gives the fuzzer a 10-second exploration slot;
// `go test -fuzz=FuzzFunctionalVsTiming .` explores further.

import (
	"context"
	"testing"
)

// fuzzBankBytes bounds each PE's bank so full-content comparison stays
// cheap per fuzz iteration. Programs addressing beyond it fail with the
// same bounds error in both modes, which is itself a compared outcome.
const fuzzBankBytes = 1 << 16

// runModeFuzz executes prog on a fresh tiny machine in the given mode,
// under a phase-step budget so never-syncing fuzz programs terminate
// deterministically (the step budget trips at the same pc with the same
// message in both modes; MaxCycles would not — it is an instruction
// bound in functional mode by design).
func runModeFuzz(prog *Program, mode Mode) (*Machine, error) {
	cfg := TinyConfig()
	cfg.BankBytes = fuzzBankBytes
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	m.SetParallelism(1)
	_, err = m.RunSameContext(context.Background(), prog, RunOptions{Mode: mode, MaxPhaseSteps: 4096})
	return m, err
}

// diffMachines compares every piece of architectural state the two
// modes promise to agree on, returning a description of the first
// divergence ("" = identical).
func diffMachines(cyc, fun *Machine) string {
	cfg := TinyConfig()
	for c := 0; c < cfg.Cubes; c++ {
		for vi := 0; vi < cfg.VaultsPerCube; vi++ {
			vc, vf := cyc.Vault(c, vi), fun.Vault(c, vi)
			for i := range vc.CRF {
				if vc.CRF[i] != vf.CRF[i] {
					return "CRF"
				}
			}
			if string(vc.VSM) != string(vf.VSM) {
				return "VSM"
			}
			for pg := 0; pg < cfg.PGsPerVault; pg++ {
				if string(vc.PGs[pg].PGSM) != string(vf.PGs[pg].PGSM) {
					return "PGSM"
				}
				for pe := 0; pe < cfg.PEsPerPG; pe++ {
					dc, ac := vc.Registers(pg*cfg.PEsPerPG + pe)
					df, af := vf.Registers(pg*cfg.PEsPerPG + pe)
					for i := range ac {
						if ac[i] != af[i] {
							return "AddrRF"
						}
					}
					for i := range dc {
						if dc[i] != df[i] {
							return "DataRF"
						}
					}
					pc, pf := vc.PE(pg, pe), vf.PE(pg, pe)
					bc, err1 := pc.ReadBank(0, fuzzBankBytes)
					bf, err2 := pf.ReadBank(0, fuzzBankBytes)
					if err1 != nil || err2 != nil {
						return "bank read"
					}
					if string(bc) != string(bf) {
						return "bank bytes"
					}
				}
			}
		}
	}
	return ""
}

func FuzzFunctionalVsTiming(f *testing.F) {
	// Seed with the adversarial cancellation corpus (never-syncing
	// loops exercise the budget-parity path)...
	for _, src := range adversarialPrograms {
		f.Add(src)
	}
	// ...straight-line programs that complete and leave state to
	// compare across every architectural store...
	f.Add(`
seti_crf c1, #8
calc_crf iadd c2, c1, #1
calc_arf iadd a4, a0, #64, sm=*
seti_vsm 0x10, #42
ld_rf d0, @a4, sm=*
comp fadd vv d2, d0, d0, vm=0xf, sm=*
st_rf d2, 0x100, sm=*
ld_pgsm 0x200, 0x40, sm=*
rd_pgsm d4, 0x40, sm=*
wr_pgsm d4, 0x60, sm=*
rd_vsm d5, 0x10, sm=0x1
wr_vsm d5, 0x90, sm=0x1
mov_arf a6, d2, lane=2, sm=*
mov_drf d6, a6, lane=0, sm=*
reset d7, sm=*
sync 0
st_rf d6, 0x300, sm=*
sync 1
`)
	// ...error parity: out-of-bounds bank and VSM accesses, a
	// jump through an out-of-range register target, and a remote
	// request to a vault the tiny machine does not have.
	f.Add("ld_rf d0, 0xfffffff0, sm=*\nsync 0\n")
	f.Add("seti_vsm 0xfffffff0, #1\n")
	f.Add("seti_crf c0, #-5\njump c0\n")
	f.Add("req chip=0, vault=7, pg=0, pe=0, dram=0x0, vsm=0x0\nsync 0\n")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return // rejected input: nothing to differentiate
		}
		if err := prog.Finalize(); err != nil {
			return
		}
		cyc, cycErr := runModeFuzz(prog, CycleMode)
		fun, funErr := runModeFuzz(prog, FunctionalMode)
		switch {
		case cycErr == nil && funErr == nil:
			if d := diffMachines(cyc, fun); d != "" {
				t.Fatalf("architectural state diverges between modes (%s)\n--- source ---\n%s", d, src)
			}
		case cycErr != nil && funErr != nil:
			if cycErr.Error() != funErr.Error() {
				t.Fatalf("error divergence:\ncycle:      %v\nfunctional: %v\n--- source ---\n%s",
					cycErr, funErr, src)
			}
		default:
			t.Fatalf("one mode failed, the other succeeded:\ncycle:      %v\nfunctional: %v\n--- source ---\n%s",
				cycErr, funErr, src)
		}
	})
}
