package vault

import (
	"testing"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

func newTestVault(t *testing.T) *Vault {
	t.Helper()
	cfg := sim.TestTiny()
	return New(&cfg, 0, 0, nil)
}

func TestConflictsWith(t *testing.T) {
	d := func(i int) isa.RegRef { return isa.RegRef{Space: isa.SpaceDRF, Index: i} }
	// In flight: d1 = f(d2).
	e := &entry{regs: isa.Regs{Def: d(1), HasDef: true, Use: [3]isa.RegRef{d(2)}, NUse: 1}}
	cases := []struct {
		name string
		regs isa.Regs
		want bool
	}{
		{"RAW", isa.Regs{Use: [3]isa.RegRef{d(1)}, NUse: 1}, true},
		{"WAW", isa.Regs{Def: d(1), HasDef: true}, true},
		{"WAR", isa.Regs{Def: d(2), HasDef: true}, true},
		{"independent", isa.Regs{Def: d(5), HasDef: true, Use: [3]isa.RegRef{d(6)}, NUse: 1}, false},
		{"different space same index", isa.Regs{Def: isa.RegRef{Space: isa.SpaceARF, Index: 1}, HasDef: true,
			Use: [3]isa.RegRef{{Space: isa.SpaceARF, Index: 2}}, NUse: 1}, false},
		{"stale use slot", isa.Regs{Use: [3]isa.RegRef{d(6), d(1)}, NUse: 1}, false},
	}
	for _, c := range cases {
		if got := conflictsWith(e, &c.regs); got != c.want {
			t.Errorf("%s: conflictsWith = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLoadRejectsBadPrograms(t *testing.T) {
	v := newTestVault(t)
	// Register out of range.
	p := &isa.Program{}
	in := isa.New(isa.OpComp)
	in.ALU = isa.FAdd
	in.Dst = 1000
	p.Append(in)
	if err := v.Load(p); err == nil {
		t.Error("out-of-range register accepted")
	}
	// Unfinalized label reference outside seti_crf.
	p2 := &isa.Program{}
	in2 := isa.New(isa.OpCalcARF)
	in2.ALU = isa.IAdd
	in2.ImmLabel = 3
	in2.HasImm = true
	p2.Append(in2)
	if err := v.Load(p2); err == nil {
		t.Error("label reference outside seti_crf accepted")
	}
}

func TestRunPhaseWithoutProgramErrors(t *testing.T) {
	v := newTestVault(t)
	if _, err := v.RunPhase(); err == nil {
		t.Fatal("RunPhase without a program succeeded")
	}
}

func TestAlignToChargesSyncStall(t *testing.T) {
	v := newTestVault(t)
	v.AlignTo(100)
	if v.Now() != 100 {
		t.Fatalf("Now = %d after AlignTo(100)", v.Now())
	}
	if v.Stats.StallCycles[sim.StallSync] != 100 {
		t.Fatalf("sync stall = %d", v.Stats.StallCycles[sim.StallSync])
	}
	// Aligning backwards is a no-op.
	v.AlignTo(50)
	if v.Now() != 100 {
		t.Fatal("AlignTo moved the clock backwards")
	}
}

func TestReqWithoutRemoteFabricErrors(t *testing.T) {
	v := newTestVault(t)
	p := &isa.Program{}
	p.Append(isa.New(isa.OpReq))
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunPhase(); err == nil {
		t.Fatal("req without remote fabric succeeded")
	}
}

func TestJumpTargetOutOfRangeErrors(t *testing.T) {
	v := newTestVault(t)
	p := &isa.Program{}
	seti := isa.New(isa.OpSetiCRF)
	seti.Dst, seti.Imm = 0, 999
	p.Append(seti)
	j := isa.New(isa.OpJump)
	j.Src1 = 0
	p.Append(j)
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunPhase(); err == nil {
		t.Fatal("jump to instruction 999 succeeded")
	}
}

func TestVSMBoundsErrors(t *testing.T) {
	v := newTestVault(t)
	p := &isa.Program{}
	in := isa.New(isa.OpSetiVSM)
	in.Addr = uint32(v.Cfg.VSMBytes)
	in.Imm = 1
	p.Append(in)
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunPhase(); err == nil {
		t.Fatal("seti_vsm beyond VSM succeeded")
	}
}

func TestEmptyProgramCompletes(t *testing.T) {
	v := newTestVault(t)
	if err := v.Load(&isa.Program{}); err != nil {
		t.Fatal(err)
	}
	done, err := v.RunPhase()
	if err != nil || !done {
		t.Fatalf("empty program: done=%v err=%v", done, err)
	}
	if !v.Done() {
		t.Fatal("vault not Done after empty program")
	}
}

func TestSetiAndCalcCRF(t *testing.T) {
	v := newTestVault(t)
	p, err := isa.Assemble(`
seti_crf c1, #10
calc_crf imul c2, c1, #3
calc_crf isub c2, c2, c1
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
	if v.CRF[2] != 20 {
		t.Fatalf("CRF[2] = %d, want 20", v.CRF[2])
	}
	if v.Stats.InstByCategory[isa.CatControlFlow] != 3 {
		t.Fatalf("control-flow count = %d", v.Stats.InstByCategory[isa.CatControlFlow])
	}
}
