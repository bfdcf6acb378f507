package vault

import (
	"fmt"

	"ipim/internal/engine"
	"ipim/internal/isa"
)

// Functional execution: the vault's one architectural executor. execFunc
// applies every instruction's architectural mutations — the vault's
// register slab (every PE's DataRF and AddrRF, vault.go), scratchpads,
// bank bytes, control flow, and the fault-injection decision stream —
// but never touches the clock, the issued queue, the DRAM controllers'
// schedules, the TSV timeline or the NoC. Two callers
// share it: the cycle-mode issue path (vault.go), which layers hazards
// and completion timing on top, and FunctionalMode runs
// (runPhaseFunctional). The machine's run-level timing memo
// (internal/cube) answers a repeated cycle-mode run with a
// FunctionalMode run plus the Stats it recorded, so a memo hit computes
// its outputs here too.

// runPhaseFunctional is RunPhase's FunctionalMode loop: execute to the
// next sync or end of program with no cycle accounting. Stats carry
// instruction counts only (Issued, InstByCategory, Syncs); Cycles and
// every stall/activity counter stay untouched. Error wrapping matches
// the cycle-mode loop exactly so budget and fault errors are
// mode-independent where their content is (the differential fuzz
// harness pins this).
func (v *Vault) runPhaseFunctional() (bool, error) {
	for {
		if v.pc >= len(v.prog.Ins) {
			v.done = true
			return true, nil
		}
		if v.limited {
			if err := v.checkRunControl(); err != nil {
				return false, err
			}
		}
		in := &v.prog.Ins[v.pc]
		if in.Op == isa.OpSync {
			v.Stats.Issued++
			v.Stats.InstByCategory[isa.CatSync]++
			v.Stats.Syncs++
			v.pc++
			return false, nil
		}
		v.Stats.Issued++
		v.Stats.InstByCategory[isa.CategoryOf(in.Op)]++
		if err := v.execFunc(in); err != nil {
			return false, fmt.Errorf("vault %d/%d: pc=%d %s: %w", v.CubeID, v.ID, v.pc, in.Op, err)
		}
	}
}

// execFunc executes one non-sync instruction functionally, managing pc
// itself (sequential fall-through or taken jump). Every execution mode
// applies data effects through it, so outputs, error text and the
// fault-injection rolls against the vault-owned counters are
// mode-independent by construction. It deliberately touches no stats:
// issue() and runPhaseFunctional count issues themselves.
func (v *Vault) execFunc(in *isa.Instruction) error {
	mask := in.SimbMask
	nPE := v.Cfg.PEsPerVault()
	switch in.Op {
	case isa.OpComp:
		v.execFuncComp(in)

	case isa.OpCalcARF:
		v.execFuncCalcARF(in)

	case isa.OpLdRF, isa.OpStRF, isa.OpLdPGSM, isa.OpStPGSM:
		if err := v.execFuncBank(in); err != nil {
			return err
		}

	case isa.OpRdPGSM, isa.OpWrPGSM:
		rd := in.Op == isa.OpRdPGSM
		d, ar := v.dreg(in.Dst), v.addrRegs(in.Addr, in.Indirect)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			pg, r, addr := v.peList[i].pg, vec(d, i), effAddr(in.Addr, ar, i)
			var err error
			if rd {
				err = pg.VectorFromPGSM(addr, r, in.VecMask)
			} else {
				err = pg.VectorToPGSM(addr, r, in.VecMask)
			}
			if err != nil {
				return err
			}
		}

	case isa.OpMovDRF:
		// AddrRF[src] into one lane of DataRF[dst] (the scalar-to-vector
		// multiplexer of Sec. IV-E).
		d, a := v.dreg(in.Dst), v.areg(in.Src1)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) != 0 {
				d[i*isa.VecLanes+in.Lane] = a[i]
			}
		}

	case isa.OpMovARF:
		a, d := v.areg(in.Dst), v.dreg(in.Src1)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) != 0 {
				a[i] = d[i*isa.VecLanes+in.Lane]
			}
		}

	case isa.OpReset:
		d := v.dreg(in.Dst)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) != 0 {
				*vec(d, i) = engine.Vector{}
			}
		}

	case isa.OpRdVSM, isa.OpWrVSM:
		d, ar := v.dreg(in.Dst), v.addrRegs(in.Addr, in.Indirect)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			addr := effAddr(in.Addr, ar, i)
			if int(addr)+4*highLane(in.VecMask)+4 > len(v.VSM) {
				return fmt.Errorf("VSM access at %#x beyond %d bytes", addr, len(v.VSM))
			}
			if in.Op == isa.OpRdVSM {
				copyVSMToVector(v.VSM, addr, vec(d, i), in.VecMask)
			} else {
				copyVectorToVSM(vec(d, i), v.VSM, addr, in.VecMask)
			}
		}

	case isa.OpSetiVSM:
		if int(in.Addr)+4 > len(v.VSM) {
			return fmt.Errorf("seti_vsm at %#x beyond %d bytes", in.Addr, len(v.VSM))
		}
		putU32(v.VSM, in.Addr, uint32(int32(in.Imm)))

	case isa.OpReq:
		if v.remote == nil {
			return fmt.Errorf("req issued but no remote fabric attached")
		}
		data, err := v.remote.RemoteRead(in.DstChip, in.DstVault, in.DstPG, in.DstPE, in.Addr)
		if err != nil {
			return err
		}
		if int(in.Addr2)+len(data) > len(v.VSM) {
			return fmt.Errorf("req response at VSM %#x beyond %d bytes", in.Addr2, len(v.VSM))
		}
		copy(v.VSM[in.Addr2:], data)
		// The bytes are placed at once; the NoC round trip and the
		// vsmReady delay of a later rd_vsm are timing, charged by issue().

	case isa.OpCalcCRF:
		a := v.CRF[in.Src1]
		b := int32(in.Imm)
		if !in.HasImm {
			b = v.CRF[in.Src2]
		}
		v.CRF[in.Dst] = isa.EvalI(in.ALU, a, b, v.CRF[in.Dst])

	case isa.OpSetiCRF:
		v.CRF[in.Dst] = int32(in.Imm)

	case isa.OpJump, isa.OpCJump:
		taken := true
		if in.Op == isa.OpCJump {
			taken = v.CRF[in.Cond] != 0
		}
		if taken {
			tgt := int(v.CRF[in.Src1])
			if tgt < 0 || tgt > len(v.prog.Ins) {
				return fmt.Errorf("jump target %d outside program of %d instructions", tgt, len(v.prog.Ins))
			}
			v.pc = tgt
			return nil
		}

	default:
		return fmt.Errorf("unhandled opcode %v", in.Op)
	}
	v.pc++
	return nil
}

// execFuncBank applies a bank instruction's data transfer for the masked
// PEs. It chooses the opcode once, and its PE loop calls that opcode's
// one mover, the same in every mode and under a fault plan. Under a
// bit-flipping plan a load rolls its faults right after each PE's move,
// one per 128-bit column of that PE's span (injectReadFaults), so faultN
// advances in PE-then-column order in every mode and a plan corrupts the
// same bits. No DRAM request is enqueued here; issueBank schedules those
// afterwards.
func (v *Vault) execFuncBank(in *isa.Instruction) error {
	mask, nPE := in.SimbMask, len(v.peList)
	ar := v.addrRegs(in.Addr, in.Indirect)
	faulty := v.fp != nil && v.fp.DRAMBitFlipRate > 0
	switch in.Op {
	case isa.OpLdRF:
		d := v.dreg(in.Dst)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			addr, r := effAddr(in.Addr, ar, i), vec(d, i)
			if err := v.peList[i].pe.LoadVector(addr, r, in.VecMask); err != nil {
				return err
			}
			if faulty {
				v.injectReadFaults(in, i, addr, r, 0)
			}
		}
	case isa.OpStRF:
		d := v.dreg(in.Dst)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if err := v.peList[i].pe.StoreVector(effAddr(in.Addr, ar, i), vec(d, i), in.VecMask); err != nil {
				return err
			}
		}
	case isa.OpLdPGSM:
		ar2 := v.addrRegs(in.Addr2, in.Indirect2)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			s, bankAddr, pgsmAddr := v.peList[i], effAddr(in.Addr, ar, i), effAddr(in.Addr2, ar2, i)
			if err := s.pg.DMABankToPGSM(s.pe, bankAddr, pgsmAddr); err != nil {
				return err
			}
			if faulty {
				v.injectReadFaults(in, i, bankAddr, nil, pgsmAddr)
			}
		}
	case isa.OpStPGSM:
		ar2 := v.addrRegs(in.Addr2, in.Indirect2)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			s := v.peList[i]
			if err := s.pg.DMAPGSMToBank(s.pe, effAddr(in.Addr2, ar2, i), effAddr(in.Addr, ar, i)); err != nil {
				return err
			}
		}
	}
	return nil
}
