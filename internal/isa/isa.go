// Package isa defines iPIM's Single-Instruction-Multiple-Bank (SIMB)
// instruction set architecture (paper Table I): instruction formats,
// operand kinds, register spaces, masks, semantic evaluation of ALU
// operations, a text assembler/disassembler, and a binary codec.
//
// The opcode list matches the paper's Table I. Two pragmatic extensions,
// both noted where they appear, are required to express the paper's own
// Table II workloads: (1) `calc_arf`/`calc_crf` accept an immediate second
// source (the paper stages constants through seti_crf / the host-loaded
// VSM constant pool; the immediate form removes a mechanical indirection
// without changing timing), and (2) the `comp` op list carries the minimal
// closure of operations the Table II pipelines need (div, min, max,
// compare, abs, int/float conversion) beyond the arithmetic/logic ops the
// table enumerates.
package isa

import "fmt"

// Opcode identifies one SIMB instruction (one row of paper Table I;
// paired rows such as st/ld are separate opcodes here).
type Opcode uint8

const (
	// OpInvalid is the zero Opcode; programs never contain it.
	OpInvalid Opcode = iota

	// Computation.
	OpComp // SIMD computation on DataRF vectors

	// Index calculation.
	OpCalcARF // INT address calculation on AddrRF

	// Intra-vault data movement.
	OpStRF    // DataRF -> bank
	OpLdRF    // bank   -> DataRF
	OpStPGSM  // PGSM   -> bank ("store data to the bank from the PGSM")
	OpLdPGSM  // bank   -> PGSM
	OpRdPGSM  // PGSM    -> DataRF
	OpWrPGSM  // DataRF  -> PGSM
	OpRdVSM   // VSM     -> DataRF
	OpWrVSM   // DataRF  -> VSM
	OpMovDRF  // AddrRF  -> DataRF (mov drf: move data TO DataRF)
	OpMovARF  // DataRF  -> AddrRF (mov arf: move data TO AddrRF)
	OpSetiVSM // imm     -> VSM (core-side)
	OpReset   // zero a DataRF entry

	// Inter-vault data movement.
	OpReq // asynchronous remote bank read into local VSM

	// Control flow (core-side).
	OpJump    // unconditional jump, target in CtrlRF
	OpCJump   // conditional jump if CtrlRF[cond] != 0, target in CtrlRF
	OpCalcCRF // INT calculation on CtrlRF
	OpSetiCRF // imm -> CtrlRF

	// Synchronization.
	OpSync // inter-vault barrier with phase id

	opEnd // sentinel, keep last
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpComp:    "comp",
	OpCalcARF: "calc_arf",
	OpStRF:    "st_rf",
	OpLdRF:    "ld_rf",
	OpStPGSM:  "st_pgsm",
	OpLdPGSM:  "ld_pgsm",
	OpRdPGSM:  "rd_pgsm",
	OpWrPGSM:  "wr_pgsm",
	OpRdVSM:   "rd_vsm",
	OpWrVSM:   "wr_vsm",
	OpMovDRF:  "mov_drf",
	OpMovARF:  "mov_arf",
	OpSetiVSM: "seti_vsm",
	OpReset:   "reset",
	OpReq:     "req",
	OpJump:    "jump",
	OpCJump:   "cjump",
	OpCalcCRF: "calc_crf",
	OpSetiCRF: "seti_crf",
	OpSync:    "sync",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Category groups opcodes the way the paper's Fig. 11 instruction
// breakdown does.
type Category uint8

const (
	CatComputation Category = iota
	CatIndexCalc
	CatIntraVault
	CatInterVault
	CatControlFlow
	CatSync
	NumCategories
)

var catNames = [...]string{
	CatComputation: "computation",
	CatIndexCalc:   "index-calc",
	CatIntraVault:  "intra-vault",
	CatInterVault:  "inter-vault",
	CatControlFlow: "control-flow",
	CatSync:        "sync",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// CategoryOf maps an opcode to its paper Fig. 11 category.
func CategoryOf(op Opcode) Category {
	switch op {
	case OpComp:
		return CatComputation
	case OpCalcARF:
		return CatIndexCalc
	case OpStRF, OpLdRF, OpStPGSM, OpLdPGSM, OpRdPGSM, OpWrPGSM,
		OpRdVSM, OpWrVSM, OpMovDRF, OpMovARF, OpSetiVSM, OpReset:
		return CatIntraVault
	case OpReq:
		return CatInterVault
	case OpJump, OpCJump, OpCalcCRF, OpSetiCRF:
		return CatControlFlow
	case OpSync:
		return CatSync
	}
	return NumCategories // invalid
}

// IsSIMB reports whether the instruction is broadcast to PEs (and thus
// honors SimbMask) as opposed to executing vault- or core-side.
func (o Opcode) IsSIMB() bool {
	switch o {
	case OpComp, OpCalcARF, OpStRF, OpLdRF, OpStPGSM, OpLdPGSM,
		OpRdPGSM, OpWrPGSM, OpRdVSM, OpWrVSM, OpMovDRF, OpMovARF, OpReset:
		return true
	}
	return false
}

// AccessesBank reports whether the opcode generates a DRAM bank access
// in the local vault.
func (o Opcode) AccessesBank() bool {
	switch o {
	case OpStRF, OpLdRF, OpStPGSM, OpLdPGSM:
		return true
	}
	return false
}

// IsBankLoad reports whether the opcode reads the DRAM bank.
func (o Opcode) IsBankLoad() bool { return o == OpLdRF || o == OpLdPGSM }

// IsBankStore reports whether the opcode writes the DRAM bank.
func (o Opcode) IsBankStore() bool { return o == OpStRF || o == OpStPGSM }

// Mode selects the comp instruction's operand shape.
type Mode uint8

const (
	ModeVV Mode = iota // vector ⊕ vector
	ModeVS             // vector ⊕ broadcast(lane 0 of src2)
)

func (m Mode) String() string {
	if m == ModeVV {
		return "vv"
	}
	return "vs"
}

// VecLanes is the SIMD vector length: 4 × 32 b = 128 b, matching the
// bank CAS width and the per-vault TSV transfer width (Table III).
const VecLanes = 4

// Reserved AddrRF locations (paper Sec. IV-E): A0–A3 hold the PE's
// peID, pgID, vaultID and chipID.
const (
	ARFPeID    = 0
	ARFPgID    = 1
	ARFVaultID = 2
	ARFChipID  = 3
	// ARFFirstFree is the first AddrRF register the compiler may allocate.
	ARFFirstFree = 4
)

// Instruction is one decoded SIMB instruction. A single struct covers all
// formats; Validate reports which fields are meaningful for each opcode.
type Instruction struct {
	Op Opcode

	// comp fields.
	ALU  ALUOp
	Mode Mode

	// Register operands. Interpretation depends on Op:
	//   comp:      Dst/Src1/Src2 index DataRF
	//   calc_arf:  Dst/Src1/Src2 index AddrRF
	//   calc_crf:  Dst/Src1/Src2 index CtrlRF
	//   mov/rd/wr: Dst or Src1 as noted per opcode
	Dst, Src1, Src2 int

	// Imm is the immediate for seti_* and the optional immediate second
	// source for calc_arf/calc_crf (valid when HasImm).
	Imm    int64
	HasImm bool

	// ImmLabel, when >= 0, names a program label whose final instruction
	// index is materialized into Imm by Program.Finalize. Used by
	// seti_crf to load jump targets symbolically.
	ImmLabel int

	// Addr is a direct byte address into the bank / PGSM / VSM for data
	// movement instructions. When Indirect is set, Addr instead names an
	// AddrRF register holding the per-PE byte address (paper: indirect
	// addressing for dram_addr, pgsm_addr and vsm_addr).
	Addr     uint32
	Indirect bool

	// Second address for two-memory moves: st_pgsm/ld_pgsm carry both a
	// bank address (Addr/Indirect) and a PGSM address (Addr2/Indirect2).
	Addr2     uint32
	Indirect2 bool

	// Lane selects the DataRF vector lane for the scalar DRF↔ARF moves.
	Lane int

	// Masks. VecMask selects valid lanes within a vector (comp); SimbMask
	// bit i selects PE i of the vault (pgID*PEsPerPG + peID).
	VecMask  uint8
	SimbMask uint64

	// req routing fields: the remote bank to read from.
	DstChip, DstVault, DstPG, DstPE int

	// Control flow.
	Cond  int // cjump: CtrlRF register holding the condition
	Phase int // sync: phase id
}

// MaskAll returns a SimbMask selecting PEs [0, n).
func MaskAll(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// VecMaskAll selects all VecLanes lanes.
const VecMaskAll uint8 = 1<<VecLanes - 1

// New returns an instruction with fields that default to "unset"
// (ImmLabel -1, full vector mask) so literal construction stays terse.
func New(op Opcode) Instruction {
	return Instruction{Op: op, ImmLabel: -1, VecMask: VecMaskAll}
}

// Validate checks structural well-formedness: operand indices in range
// for the given register file sizes and required fields present.
// drfSize/arfSize/crfSize are entry counts of the respective files.
func (in *Instruction) Validate(drfSize, arfSize, crfSize int) error {
	ck := func(idx, size int, what string) error {
		if idx < 0 || idx >= size {
			return fmt.Errorf("isa: %s: %s index %d out of range [0,%d)", in.Op, what, idx, size)
		}
		return nil
	}
	switch in.Op {
	case OpComp:
		if !in.ALU.ValidForComp() {
			return fmt.Errorf("isa: comp: invalid ALU op %v", in.ALU)
		}
		if err := ck(in.Dst, drfSize, "dst_drf"); err != nil {
			return err
		}
		if err := ck(in.Src1, drfSize, "src1_drf"); err != nil {
			return err
		}
		return ck(in.Src2, drfSize, "src2_drf")
	case OpCalcARF:
		if !in.ALU.ValidForCalc() {
			return fmt.Errorf("isa: calc_arf: invalid ALU op %v", in.ALU)
		}
		if err := ck(in.Dst, arfSize, "dst_arf"); err != nil {
			return err
		}
		if err := ck(in.Src1, arfSize, "src1_arf"); err != nil {
			return err
		}
		if in.HasImm {
			return nil
		}
		return ck(in.Src2, arfSize, "src2_arf")
	case OpCalcCRF:
		if !in.ALU.ValidForCalc() {
			return fmt.Errorf("isa: calc_crf: invalid ALU op %v", in.ALU)
		}
		if err := ck(in.Dst, crfSize, "dst_crf"); err != nil {
			return err
		}
		if err := ck(in.Src1, crfSize, "src1_crf"); err != nil {
			return err
		}
		if in.HasImm {
			return nil
		}
		return ck(in.Src2, crfSize, "src2_crf")
	case OpStRF, OpLdRF:
		if in.Indirect {
			if err := ck(int(in.Addr), arfSize, "dram_addr(arf)"); err != nil {
				return err
			}
		}
		return ck(in.Dst, drfSize, "drf_addr")
	case OpStPGSM, OpLdPGSM:
		if in.Indirect {
			if err := ck(int(in.Addr), arfSize, "dram_addr(arf)"); err != nil {
				return err
			}
		}
		if in.Indirect2 {
			return ck(int(in.Addr2), arfSize, "pgsm_addr(arf)")
		}
		return nil
	case OpRdPGSM, OpWrPGSM, OpRdVSM, OpWrVSM:
		if in.Indirect {
			if err := ck(int(in.Addr), arfSize, "mem_addr(arf)"); err != nil {
				return err
			}
		}
		return ck(in.Dst, drfSize, "drf_addr")
	case OpMovDRF, OpMovARF:
		srcSize, dstSize := drfSize, arfSize // mov_arf: DataRF -> AddrRF
		if in.Op == OpMovDRF {               // mov_drf: AddrRF -> DataRF
			srcSize, dstSize = arfSize, drfSize
		}
		if err := ck(in.Src1, srcSize, "src"); err != nil {
			return err
		}
		if err := ck(in.Dst, dstSize, "dst"); err != nil {
			return err
		}
		if in.Lane < 0 || in.Lane >= VecLanes {
			return fmt.Errorf("isa: %v: lane %d out of range", in.Op, in.Lane)
		}
		return nil
	case OpSetiVSM:
		return nil
	case OpReset:
		return ck(in.Dst, drfSize, "drf_addr")
	case OpReq:
		if in.DstChip < 0 || in.DstVault < 0 || in.DstPG < 0 || in.DstPE < 0 {
			return fmt.Errorf("isa: req: negative routing field")
		}
		return nil
	case OpJump:
		return ck(in.Src1, crfSize, "target_crf")
	case OpCJump:
		if err := ck(in.Cond, crfSize, "cond_crf"); err != nil {
			return err
		}
		return ck(in.Src1, crfSize, "target_crf")
	case OpSetiCRF:
		return ck(in.Dst, crfSize, "crf_addr")
	case OpSync:
		if in.Phase < 0 {
			return fmt.Errorf("isa: sync: negative phase id")
		}
		return nil
	}
	return fmt.Errorf("isa: invalid opcode %d", in.Op)
}
