package isa

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestOpcodeNamesRoundTrip(t *testing.T) {
	for op := OpComp; op < opEnd; op++ {
		got, ok := opcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("opcodeByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := opcodeByName("bogus"); ok {
		t.Error("opcodeByName accepted bogus name")
	}
	if _, ok := opcodeByName("invalid"); ok {
		t.Error("opcodeByName accepted the invalid sentinel")
	}
}

func TestALUOpNamesRoundTrip(t *testing.T) {
	for op := FAdd; op < aluEnd; op++ {
		got, ok := ALUOpByName(op.String())
		if !ok || got != op {
			t.Errorf("ALUOpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := ALUOpByName("frobnicate"); ok {
		t.Error("ALUOpByName accepted bogus name")
	}
}

func TestCategoryOfCoversAllOpcodes(t *testing.T) {
	for op := OpComp; op < opEnd; op++ {
		if c := CategoryOf(op); c >= NumCategories {
			t.Errorf("CategoryOf(%v) = %v (uncategorized)", op, c)
		}
	}
	if CategoryOf(OpComp) != CatComputation {
		t.Error("comp not in computation category")
	}
	if CategoryOf(OpCalcARF) != CatIndexCalc {
		t.Error("calc_arf not in index-calc category")
	}
	if CategoryOf(OpReq) != CatInterVault {
		t.Error("req not in inter-vault category")
	}
	if CategoryOf(OpSync) != CatSync {
		t.Error("sync not in sync category")
	}
}

func TestIsSIMBAndBankAccess(t *testing.T) {
	if !OpComp.IsSIMB() || !OpLdRF.IsSIMB() || !OpReset.IsSIMB() {
		t.Error("PE-broadcast opcodes not flagged IsSIMB")
	}
	for _, op := range []Opcode{OpSetiVSM, OpReq, OpJump, OpCJump, OpCalcCRF, OpSetiCRF, OpSync} {
		if op.IsSIMB() {
			t.Errorf("%v incorrectly flagged IsSIMB", op)
		}
	}
	if !OpLdRF.IsBankLoad() || !OpLdPGSM.IsBankLoad() {
		t.Error("bank loads not flagged")
	}
	if !OpStRF.IsBankStore() || !OpStPGSM.IsBankStore() {
		t.Error("bank stores not flagged")
	}
	if OpRdPGSM.AccessesBank() {
		t.Error("rd_pgsm flagged as bank access")
	}
}

func TestMaskAll(t *testing.T) {
	if MaskAll(0) != 0 {
		t.Error("MaskAll(0) != 0")
	}
	if MaskAll(4) != 0xF {
		t.Errorf("MaskAll(4) = %#x", MaskAll(4))
	}
	if MaskAll(32) != 0xFFFFFFFF {
		t.Errorf("MaskAll(32) = %#x", MaskAll(32))
	}
	if MaskAll(64) != ^uint64(0) {
		t.Errorf("MaskAll(64) = %#x", MaskAll(64))
	}
	if MaskAll(99) != ^uint64(0) {
		t.Errorf("MaskAll(99) = %#x", MaskAll(99))
	}
}

func TestEvalFArithmetic(t *testing.T) {
	cases := []struct {
		op      ALUOp
		a, b, d float32
		want    float32
	}{
		{FAdd, 2, 3, 0, 5},
		{FSub, 2, 3, 0, -1},
		{FMul, 2, 3, 0, 6},
		{FMac, 2, 3, 10, 16},
		{FDiv, 6, 3, 0, 2},
		{FMin, 2, 3, 0, 2},
		{FMax, 2, 3, 0, 3},
		{FAbs, -2.5, 0, 0, 2.5},
		{FCmpLT, 1, 2, 0, 1},
		{FCmpLT, 2, 1, 0, 0},
		{FCmpLE, 2, 2, 0, 1},
		{FFloor, 2.7, 0, 0, 2},
		{FFloor, -2.3, 0, 0, -3},
		{Mov, 9, 1, 0, 9},
	}
	for _, c := range cases {
		if got := EvalF(c.op, c.a, c.b, c.d); got != c.want {
			t.Errorf("EvalF(%v, %v, %v, %v) = %v, want %v", c.op, c.a, c.b, c.d, got, c.want)
		}
	}
}

func TestEvalIArithmetic(t *testing.T) {
	cases := []struct {
		op      ALUOp
		a, b, d int32
		want    int32
	}{
		{IAdd, 2, 3, 0, 5},
		{ISub, 2, 3, 0, -1},
		{IMul, 2, 3, 0, 6},
		{IMac, 2, 3, 10, 16},
		{IMin, -2, 3, 0, -2},
		{IMax, -2, 3, 0, 3},
		{ICmpLT, 1, 2, 0, 1},
		{ICmpLT, 2, 2, 0, 0},
		{ICmpEQ, 5, 5, 0, 1},
		{Shl, 1, 4, 0, 16},
		{Shr, -16, 1, 0, math.MaxInt32 - 7 + 0}, // logical shift of 0xFFFFFFF0
		{And, 0b1100, 0b1010, 0, 0b1000},
		{Or, 0b1100, 0b1010, 0, 0b1110},
		{Xor, 0b1100, 0b1010, 0, 0b0110},
		{CropLSB, 0x12345678, 0, 0, 0x5678},
		{CropMSB, 0x12345678, 0, 0, 0x1234},
		{Mov, 7, 0, 0, 7},
	}
	for _, c := range cases {
		if c.op == Shr {
			// logical shift right of 0xFFFFFFF0 by 1 = 0x7FFFFFF8
			if got := EvalI(Shr, -16, 1, 0); got != 0x7FFFFFF8 {
				t.Errorf("EvalI(shr,-16,1) = %#x, want 0x7FFFFFF8", uint32(got))
			}
			continue
		}
		if got := EvalI(c.op, c.a, c.b, c.d); got != c.want {
			t.Errorf("EvalI(%v, %v, %v, %v) = %v, want %v", c.op, c.a, c.b, c.d, got, c.want)
		}
	}
}

func TestEvalLaneConversions(t *testing.T) {
	minus7 := int32(-7)
	if got := EvalLane(I2F, uint32(minus7), 0, 0); math.Float32frombits(got) != -7 {
		t.Errorf("I2F(-7) = %v", math.Float32frombits(got))
	}
	if got := int32(EvalLane(F2I, math.Float32bits(3.9), 0, 0)); got != 3 {
		t.Errorf("F2I(3.9) = %d, want 3", got)
	}
	if got := int32(EvalLane(F2I, math.Float32bits(-3.9), 0, 0)); got != -3 {
		t.Errorf("F2I(-3.9) = %d, want -3", got)
	}
	if got := int32(EvalLane(F2I, math.Float32bits(float32(math.NaN())), 0, 0)); got != 0 {
		t.Errorf("F2I(NaN) = %d, want 0", got)
	}
	if got := int32(EvalLane(F2I, math.Float32bits(1e30), 0, 0)); got != math.MaxInt32 {
		t.Errorf("F2I(1e30) = %d, want MaxInt32", got)
	}
	if got := int32(EvalLane(F2I, math.Float32bits(-1e30), 0, 0)); got != math.MinInt32 {
		t.Errorf("F2I(-1e30) = %d, want MinInt32", got)
	}
	// Float path dispatch through EvalLane.
	got := EvalLane(FAdd, math.Float32bits(1.5), math.Float32bits(2.25), 0)
	if math.Float32frombits(got) != 3.75 {
		t.Errorf("EvalLane(fadd) = %v", math.Float32frombits(got))
	}
	// Int path dispatch through EvalLane.
	if got := EvalLane(IAdd, 7, 8, 0); got != 15 {
		t.Errorf("EvalLane(iadd) = %d", got)
	}
	// Mac reads accumulator through EvalLane.
	got = EvalLane(FMac, math.Float32bits(2), math.Float32bits(3), math.Float32bits(1))
	if math.Float32frombits(got) != 7 {
		t.Errorf("EvalLane(fmac) = %v", math.Float32frombits(got))
	}
}

func TestValidForCalcRejectsFloat(t *testing.T) {
	for _, op := range []ALUOp{FAdd, FMul, FMac, FDiv, I2F, F2I} {
		if op.ValidForCalc() {
			t.Errorf("%v accepted for scalar calc unit (must be INT only)", op)
		}
	}
	for _, op := range []ALUOp{IAdd, IMul, Shl, And, Mov, CropMSB} {
		if !op.ValidForCalc() {
			t.Errorf("%v rejected for scalar calc unit", op)
		}
	}
}

func TestInstructionValidate(t *testing.T) {
	comp := New(OpComp)
	comp.ALU = FAdd
	comp.Dst, comp.Src1, comp.Src2 = 1, 2, 3
	if err := comp.Validate(64, 64, 64); err != nil {
		t.Errorf("valid comp rejected: %v", err)
	}
	comp.Dst = 64
	if err := comp.Validate(64, 64, 64); err == nil {
		t.Error("out-of-range dst accepted")
	}

	calc := New(OpCalcARF)
	calc.ALU = IAdd
	calc.Dst, calc.Src1 = 5, 5
	calc.HasImm, calc.Imm = true, 16
	if err := calc.Validate(64, 64, 64); err != nil {
		t.Errorf("valid calc_arf rejected: %v", err)
	}
	calc.ALU = FAdd
	if err := calc.Validate(64, 64, 64); err == nil {
		t.Error("float op on calc_arf accepted")
	}

	ld := New(OpLdRF)
	ld.Dst = 3
	ld.Indirect = true
	ld.Addr = 70
	if err := ld.Validate(64, 64, 64); err == nil {
		t.Error("indirect address register out of range accepted")
	}
	ld.Addr = 5
	if err := ld.Validate(64, 64, 64); err != nil {
		t.Errorf("valid indirect ld_rf rejected: %v", err)
	}

	mov := New(OpMovARF)
	mov.Dst, mov.Src1, mov.Lane = 4, 2, 5
	if err := mov.Validate(64, 64, 64); err == nil {
		t.Error("lane out of range accepted")
	}
	mov.Lane = 2
	if err := mov.Validate(64, 64, 64); err != nil {
		t.Errorf("valid mov_arf rejected: %v", err)
	}

	bad := Instruction{Op: OpInvalid}
	if err := bad.Validate(64, 64, 64); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestDefsUses(t *testing.T) {
	uses := func(r Regs) []RegRef { return r.Use[:r.NUse] }
	comp := New(OpComp)
	comp.ALU = FMac
	comp.Dst, comp.Src1, comp.Src2 = 1, 2, 3
	r := comp.Regs()
	if !r.HasDef || r.Def != (RegRef{SpaceDRF, 1}) {
		t.Errorf("fmac regs = %+v", r)
	}
	// fmac reads src1, src2 AND dst, in that order.
	if got, want := uses(r), []RegRef{{SpaceDRF, 2}, {SpaceDRF, 3}, {SpaceDRF, 1}}; !slices.Equal(got, want) {
		t.Errorf("fmac uses = %v, want %v", got, want)
	}

	st := New(OpStRF)
	st.Dst = 7
	st.Indirect = true
	st.Addr = 9
	r = st.Regs()
	if got, want := uses(r), []RegRef{{SpaceDRF, 7}, {SpaceARF, 9}}; !slices.Equal(got, want) {
		t.Fatalf("st_rf uses = %v, want %v", got, want)
	}
	if r.HasDef {
		t.Errorf("st_rf def = %v, want none", r.Def)
	}

	cj := New(OpCJump)
	cj.Cond, cj.Src1 = 1, 2
	if got, want := uses(cj.Regs()), []RegRef{{SpaceCRF, 1}, {SpaceCRF, 2}}; !slices.Equal(got, want) {
		t.Errorf("cjump uses = %v, want %v", got, want)
	}

	ld := New(OpLdPGSM)
	ld.Indirect, ld.Addr = true, 4
	ld.Indirect2, ld.Addr2 = true, 5
	if got, want := uses(ld.Regs()), []RegRef{{SpaceARF, 4}, {SpaceARF, 5}}; !slices.Equal(got, want) {
		t.Errorf("ld_pgsm with two indirect addresses uses = %v, want %v", got, want)
	}
}

// TestRegsMatchRewriteRegs checks that RewriteRegs visits exactly the
// fields whose registers Regs reports, for every opcode with HasImm,
// Indirect, Indirect2 and the mac accumulator read each on and off.
// Every register field holds a distinct index, so the set of indices
// names the set of fields.
func TestRegsMatchRewriteRegs(t *testing.T) {
	const shift = 100
	for op := OpInvalid + 1; op < opEnd; op++ {
		for flags := 0; flags < 16; flags++ {
			in := New(op)
			in.Dst, in.Src1, in.Src2, in.Cond = 1, 2, 3, 4
			in.Addr, in.Addr2 = 5, 6
			in.HasImm, in.Indirect, in.Indirect2 = flags&1 != 0, flags&2 != 0, flags&4 != 0
			in.ALU = FAdd
			if flags&8 != 0 {
				in.ALU = FMac
			}
			name := fmt.Sprintf("%v imm=%v ind=%v ind2=%v alu=%v", op, in.HasImm, in.Indirect, in.Indirect2, in.ALU)
			regs := in.Regs()
			for space := SpaceDRF; space <= SpaceCRF; space++ {
				want := map[int]bool{}
				if regs.HasDef && regs.Def.Space == space {
					want[regs.Def.Index] = true
				}
				for _, u := range regs.Use[:regs.NUse] {
					if u.Space == space {
						want[u.Index] = true
					}
				}
				got := map[int]int{}
				moved := in
				moved.RewriteRegs(space, func(i int) int { got[i]++; return i + shift })
				for i, n := range got {
					if !want[i] || n != 1 {
						t.Errorf("%s: rewrite of space %v visited field %d %d times; Regs reports %v", name, space, i, n, want)
					}
				}
				for i := range want {
					if got[i] == 0 {
						t.Errorf("%s: rewrite of space %v skipped field %d, which Regs reports", name, space, i)
					}
				}
				// The rewritten instruction names the mapped registers.
				after := moved.Regs()
				exp := regs
				if exp.HasDef && exp.Def.Space == space {
					exp.Def.Index += shift
				}
				for k := range exp.Use[:exp.NUse] {
					if exp.Use[k].Space == space {
						exp.Use[k].Index += shift
					}
				}
				if after != exp {
					t.Errorf("%s: after rewriting space %v Regs = %+v, want %+v", name, space, after, exp)
				}
			}
		}
	}
}

func TestRegRefString(t *testing.T) {
	if (RegRef{SpaceDRF, 3}).String() != "d3" {
		t.Error("bad DRF ref string")
	}
	if (RegRef{SpaceARF, 0}).String() != "a0" {
		t.Error("bad ARF ref string")
	}
	if (RegRef{SpaceCRF, 12}).String() != "c12" {
		t.Error("bad CRF ref string")
	}
}

func TestProgramLabelsFinalize(t *testing.T) {
	p := &Program{}
	top := p.NewLabel()
	p.Bind(top)
	seti := New(OpSetiCRF)
	seti.Dst = 0
	seti.ImmLabel = top
	p.Append(seti)
	j := New(OpJump)
	j.Src1 = 0
	p.Append(j)
	if err := p.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if p.Ins[0].Imm != 0 {
		t.Errorf("label resolved to %d, want 0", p.Ins[0].Imm)
	}

	// Unbound label errors.
	q := &Program{}
	l := q.NewLabel()
	s := New(OpSetiCRF)
	s.ImmLabel = l
	q.Append(s)
	if err := q.Finalize(); err == nil {
		t.Error("Finalize accepted unbound label")
	}
}

func TestCountByCategory(t *testing.T) {
	p := &Program{}
	c := New(OpComp)
	c.ALU = FAdd
	p.Append(c)
	p.Append(New(OpCalcARF))
	p.Append(New(OpCalcARF))
	p.Append(New(OpLdRF))
	p.Append(New(OpSync))
	got := p.CountByCategory()
	if got[CatComputation] != 1 || got[CatIndexCalc] != 2 || got[CatIntraVault] != 1 || got[CatSync] != 1 {
		t.Errorf("CountByCategory = %v", got)
	}
}
