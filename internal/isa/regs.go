package isa

import "fmt"

// Register operands. Regs says which registers an instruction writes
// and reads, for the control core's issue-time hazard check (paper
// Sec. IV-B) and the compiler's register allocation and reordering
// (Sec. V-C); RewriteRegs renames the same fields. Both switches below
// are the one statement of which instruction fields hold registers.

// RegSpace identifies which register file a register reference names.
type RegSpace uint8

const (
	SpaceDRF RegSpace = iota // per-PE data register file (vector)
	SpaceARF                 // per-PE address register file (scalar)
	SpaceCRF                 // control core register file (scalar)
)

func (s RegSpace) String() string {
	switch s {
	case SpaceDRF:
		return "d"
	case SpaceARF:
		return "a"
	case SpaceCRF:
		return "c"
	}
	return "?"
}

// RegRef is a typed register reference used for hazard detection and
// liveness analysis.
type RegRef struct {
	Space RegSpace
	Index int
}

func (r RegRef) String() string { return fmt.Sprintf("%s%d", r.Space, r.Index) }

// Regs is one instruction's register def/use set: the register it
// writes, if any, and the registers it reads in operand order,
// indirect-address registers and the accumulator read of mac
// included. Memory is not a register. No instruction writes more than
// one register or reads more than three, so Regs is a plain value and
// building one never allocates.
type Regs struct {
	Def    RegRef // the register written, when HasDef
	HasDef bool
	Use    [3]RegRef // Use[:NUse] are the registers read
	NUse   int
}

func (r *Regs) def(s RegSpace, i int) { r.Def, r.HasDef = RegRef{s, i}, true }

func (r *Regs) use(s RegSpace, i int) {
	r.Use[r.NUse] = RegRef{s, i}
	r.NUse++
}

// calcSpace is the register file calc_arf or calc_crf computes on.
func calcSpace(op Opcode) RegSpace {
	if op == OpCalcARF {
		return SpaceARF
	}
	return SpaceCRF
}

// movSpaces returns the destination and source register files of
// mov_drf (AddrRF -> DataRF) or mov_arf (DataRF -> AddrRF).
func movSpaces(op Opcode) (dst, src RegSpace) {
	if op == OpMovDRF {
		return SpaceDRF, SpaceARF
	}
	return SpaceARF, SpaceDRF
}

// Regs returns the registers the instruction writes and reads.
func (in *Instruction) Regs() Regs {
	var r Regs
	switch in.Op {
	case OpComp:
		r.def(SpaceDRF, in.Dst)
		r.use(SpaceDRF, in.Src1)
		r.use(SpaceDRF, in.Src2)
		if in.ALU.ReadsDst() {
			r.use(SpaceDRF, in.Dst)
		}
	case OpCalcARF, OpCalcCRF:
		s := calcSpace(in.Op)
		r.def(s, in.Dst)
		r.use(s, in.Src1)
		if !in.HasImm {
			r.use(s, in.Src2)
		}
	case OpSetiCRF:
		r.def(SpaceCRF, in.Dst)
	case OpLdRF, OpRdPGSM, OpRdVSM:
		r.def(SpaceDRF, in.Dst)
		if in.Indirect {
			r.use(SpaceARF, int(in.Addr))
		}
	case OpStRF, OpWrPGSM, OpWrVSM:
		r.use(SpaceDRF, in.Dst)
		if in.Indirect {
			r.use(SpaceARF, int(in.Addr))
		}
	case OpStPGSM, OpLdPGSM:
		if in.Indirect {
			r.use(SpaceARF, int(in.Addr))
		}
		if in.Indirect2 {
			r.use(SpaceARF, int(in.Addr2))
		}
	case OpMovDRF, OpMovARF:
		dst, src := movSpaces(in.Op)
		r.def(dst, in.Dst)
		r.use(src, in.Src1)
	case OpReset:
		r.def(SpaceDRF, in.Dst)
	case OpJump:
		r.use(SpaceCRF, in.Src1)
	case OpCJump:
		r.use(SpaceCRF, in.Cond)
		r.use(SpaceCRF, in.Src1)
	}
	return r
}

// RewriteRegs replaces every register of the given space that Regs
// reports with fn of it, visiting each field once (the accumulator
// read of mac is the Dst field).
func (in *Instruction) RewriteRegs(space RegSpace, fn func(int) int) {
	switch in.Op {
	case OpComp:
		if space == SpaceDRF {
			in.Dst, in.Src1, in.Src2 = fn(in.Dst), fn(in.Src1), fn(in.Src2)
		}
	case OpCalcARF, OpCalcCRF:
		if space == calcSpace(in.Op) {
			in.Dst, in.Src1 = fn(in.Dst), fn(in.Src1)
			if !in.HasImm {
				in.Src2 = fn(in.Src2)
			}
		}
	case OpSetiCRF:
		if space == SpaceCRF {
			in.Dst = fn(in.Dst)
		}
	case OpLdRF, OpRdPGSM, OpRdVSM, OpStRF, OpWrPGSM, OpWrVSM:
		if space == SpaceDRF {
			in.Dst = fn(in.Dst)
		}
		if space == SpaceARF && in.Indirect {
			in.Addr = uint32(fn(int(in.Addr)))
		}
	case OpStPGSM, OpLdPGSM:
		if space == SpaceARF && in.Indirect {
			in.Addr = uint32(fn(int(in.Addr)))
		}
		if space == SpaceARF && in.Indirect2 {
			in.Addr2 = uint32(fn(int(in.Addr2)))
		}
	case OpMovDRF, OpMovARF:
		dst, src := movSpaces(in.Op)
		if space == dst {
			in.Dst = fn(in.Dst)
		}
		if space == src {
			in.Src1 = fn(in.Src1)
		}
	case OpReset:
		if space == SpaceDRF {
			in.Dst = fn(in.Dst)
		}
	case OpJump:
		if space == SpaceCRF {
			in.Src1 = fn(in.Src1)
		}
	case OpCJump:
		if space == SpaceCRF {
			in.Cond, in.Src1 = fn(in.Cond), fn(in.Src1)
		}
	}
}
