package isa

import (
	"encoding/binary"
	"fmt"
)

// Binary program format. Instructions encode to fixed-size 56-byte
// records (little endian); a program is a small header followed by the
// label table and the instruction records. Machine checkpoints store
// their program table in this format, and ipim-asm writes (-a) and
// reads (-d) it; a program reloads byte-identically.

const (
	// InstructionSize is the encoded size of one instruction in bytes.
	InstructionSize = 56
	programMagic    = 0x4d495069 // "iPIM"
	formatVersion   = 1
)

// flag bits within the encoded record.
const (
	flagHasImm uint8 = 1 << iota
	flagIndirect
	flagIndirect2
)

// EncodeInstruction serializes in into buf, which must be at least
// InstructionSize bytes. It returns the bytes written.
func EncodeInstruction(in *Instruction, buf []byte) int {
	_ = buf[InstructionSize-1]
	buf[0] = byte(in.Op)
	buf[1] = byte(in.ALU)
	buf[2] = byte(in.Mode)
	var fl uint8
	if in.HasImm {
		fl |= flagHasImm
	}
	if in.Indirect {
		fl |= flagIndirect
	}
	if in.Indirect2 {
		fl |= flagIndirect2
	}
	buf[3] = fl
	buf[4] = in.VecMask
	buf[5] = byte(in.Lane)
	buf[6] = byte(in.DstChip)
	buf[7] = byte(in.DstVault)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], uint32(int32(in.Dst)))
	le.PutUint32(buf[12:], uint32(int32(in.Src1)))
	le.PutUint32(buf[16:], uint32(int32(in.Src2)))
	le.PutUint64(buf[20:], uint64(in.Imm))
	le.PutUint32(buf[28:], uint32(int32(in.ImmLabel)))
	le.PutUint32(buf[32:], in.Addr)
	le.PutUint32(buf[36:], in.Addr2)
	le.PutUint64(buf[40:], in.SimbMask)
	le.PutUint32(buf[48:], uint32(int32(in.Cond)))
	buf[52] = byte(in.DstPG)
	buf[53] = byte(in.DstPE)
	le.PutUint16(buf[54:], uint16(in.Phase))
	return InstructionSize
}

// DecodeInstruction deserializes one instruction from buf.
func DecodeInstruction(buf []byte) (Instruction, error) {
	if len(buf) < InstructionSize {
		return Instruction{}, fmt.Errorf("isa: short instruction record (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	in := Instruction{
		Op:       Opcode(buf[0]),
		ALU:      ALUOp(buf[1]),
		Mode:     Mode(buf[2]),
		VecMask:  buf[4],
		Lane:     int(buf[5]),
		DstChip:  int(buf[6]),
		DstVault: int(buf[7]),
		Dst:      int(int32(le.Uint32(buf[8:]))),
		Src1:     int(int32(le.Uint32(buf[12:]))),
		Src2:     int(int32(le.Uint32(buf[16:]))),
		Imm:      int64(le.Uint64(buf[20:])),
		ImmLabel: int(int32(le.Uint32(buf[28:]))),
		Addr:     le.Uint32(buf[32:]),
		Addr2:    le.Uint32(buf[36:]),
		SimbMask: le.Uint64(buf[40:]),
		Cond:     int(int32(le.Uint32(buf[48:]))),
		DstPG:    int(buf[52]),
		DstPE:    int(buf[53]),
		Phase:    int(le.Uint16(buf[54:])),
	}
	fl := buf[3]
	in.HasImm = fl&flagHasImm != 0
	in.Indirect = fl&flagIndirect != 0
	in.Indirect2 = fl&flagIndirect2 != 0
	if in.Op == OpInvalid || in.Op >= opEnd {
		return in, fmt.Errorf("isa: invalid opcode %d in record", buf[0])
	}
	return in, nil
}

// EncodeProgram serializes a whole program.
func EncodeProgram(p *Program) []byte {
	n := 16 + 4*len(p.Labels) + InstructionSize*len(p.Ins)
	out := make([]byte, n)
	le := binary.LittleEndian
	le.PutUint32(out[0:], programMagic)
	le.PutUint32(out[4:], formatVersion)
	le.PutUint32(out[8:], uint32(len(p.Labels)))
	le.PutUint32(out[12:], uint32(len(p.Ins)))
	off := 16
	for _, l := range p.Labels {
		le.PutUint32(out[off:], uint32(int32(l)))
		off += 4
	}
	for i := range p.Ins {
		off += EncodeInstruction(&p.Ins[i], out[off:])
	}
	return out
}

// DecodeProgram deserializes a program produced by EncodeProgram.
func DecodeProgram(data []byte) (*Program, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("isa: short program header")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != programMagic {
		return nil, fmt.Errorf("isa: bad program magic %#x", le.Uint32(data[0:]))
	}
	if v := le.Uint32(data[4:]); v != formatVersion {
		return nil, fmt.Errorf("isa: unsupported format version %d", v)
	}
	nLabels := int(le.Uint32(data[8:]))
	nIns := int(le.Uint32(data[12:]))
	want := 16 + 4*nLabels + InstructionSize*nIns
	if len(data) < want {
		return nil, fmt.Errorf("isa: truncated program: have %d bytes, want %d", len(data), want)
	}
	p := &Program{Labels: make([]int, nLabels), Ins: make([]Instruction, 0, nIns)}
	off := 16
	for i := range p.Labels {
		p.Labels[i] = int(int32(le.Uint32(data[off:])))
		off += 4
	}
	for i := 0; i < nIns; i++ {
		in, err := DecodeInstruction(data[off:])
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		p.Ins = append(p.Ins, in)
		off += InstructionSize
	}
	return p, nil
}
