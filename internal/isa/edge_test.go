package isa

import (
	"strings"
	"testing"
)

func TestValidateEveryOpcodeDefault(t *testing.T) {
	// New() of every opcode with in-range operands must validate.
	for op := OpComp; op < opEnd; op++ {
		in := New(op)
		switch op {
		case OpComp:
			in.ALU = FAdd
		case OpCalcARF, OpCalcCRF:
			in.ALU = IAdd
		}
		if err := in.Validate(64, 64, 64); err != nil {
			t.Errorf("default %v invalid: %v", op, err)
		}
	}
}

func TestValidateIndirectFields(t *testing.T) {
	in := New(OpRdVSM)
	in.Indirect = true
	in.Addr = 100 // beyond 64-entry AddrRF
	if err := in.Validate(64, 64, 64); err == nil {
		t.Error("indirect VSM address register out of range accepted")
	}
	in2 := New(OpStPGSM)
	in2.Indirect2 = true
	in2.Addr2 = 70
	if err := in2.Validate(64, 64, 64); err == nil {
		t.Error("indirect PGSM address register out of range accepted")
	}
	rq := New(OpReq)
	rq.DstChip = -1
	if err := rq.Validate(64, 64, 64); err == nil {
		t.Error("negative req routing accepted")
	}
	sy := New(OpSync)
	sy.Phase = -2
	if err := sy.Validate(64, 64, 64); err == nil {
		t.Error("negative sync phase accepted")
	}
}

func TestDisassembleLabelsAtProgramEnd(t *testing.T) {
	p := &Program{}
	in := New(OpSync)
	p.Append(in)
	end := p.NewLabel()
	p.Bind(end) // binds at len(Ins) == 1 (program end)
	text := Disassemble(p)
	if !strings.Contains(text, "L0:") {
		t.Fatalf("end-of-program label lost:\n%s", text)
	}
	q, err := Assemble(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Labels) != 1 || q.Labels[0] != 1 {
		t.Fatalf("label table %v after round trip", q.Labels)
	}
}

func TestFormatInstructionAllOpcodes(t *testing.T) {
	// Every opcode formats and (where grammar exists) reparses.
	for op := OpComp; op < opEnd; op++ {
		in := New(op)
		switch op {
		case OpComp:
			in.ALU = FAdd
		case OpCalcARF, OpCalcCRF:
			in.ALU = IAdd
			in.HasImm = true
		}
		text := FormatInstruction(&in)
		if text == "" || strings.Contains(text, "?") {
			t.Errorf("%v formats to %q", op, text)
		}
	}
}

func TestAssembleMasksAndLaneOptionsInAnyOrder(t *testing.T) {
	p, err := Assemble("comp fadd vv d1, d2, d3, sm=0x5, vm=0x3")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Ins[0]
	if in.SimbMask != 5 || in.VecMask != 3 {
		t.Fatalf("options out of order mis-parsed: %+v", in)
	}
}

func TestUsesIncludesIndirectPGSMAddress(t *testing.T) {
	in := New(OpWrPGSM)
	in.Dst = 2
	in.Indirect = true
	in.Addr = 7
	regs := in.Regs()
	uses := regs.Use[:regs.NUse]
	foundDRF, foundARF := false, false
	for _, u := range uses {
		if u == (RegRef{SpaceDRF, 2}) {
			foundDRF = true
		}
		if u == (RegRef{SpaceARF, 7}) {
			foundARF = true
		}
	}
	if !foundDRF || !foundARF {
		t.Fatalf("wr_pgsm uses = %v", uses)
	}
}

func TestCategoryStringNames(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if strings.Contains(c.String(), "cat(") {
			t.Errorf("category %d unnamed", c)
		}
	}
}
