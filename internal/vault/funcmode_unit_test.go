package vault

// In-package unit tests for the functional execution mode. The
// root-package differential matrix (funcmode_test.go) pins
// whole-machine equivalence; these tests pin the pieces directly: every
// specialized comp kernel against isa.EvalLane on adversarial bit
// patterns, each execFunc dispatch path run under the cycle-mode issue
// loop and under functional mode on a single vault (both share the
// executor, so these pin control flow, pc handling and error wrapping;
// execref_test.go pins the kernels themselves), and the functional
// budget reinterpretation.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ipim/internal/engine"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// kernelPatterns are adversarial 32-bit lane values: NaNs, infinities,
// denormals, signed zeros, integer extremes, float values at the F2I
// clamp boundaries, and shift counts around the mod-32 wrap.
var kernelPatterns = []uint32{
	0x00000000, 0x80000000, // +0, -0
	0x3F800000, 0xBF800000, // +1, -1
	0x7F800000, 0xFF800000, // +Inf, -Inf
	0x7FC00000, 0xFFC00000, // quiet NaNs
	0x7F800001,             // signaling NaN pattern
	0x00000001, 0x807FFFFF, // denormals
	0x7F7FFFFF, 0xFF7FFFFF, // +-MaxFloat32
	0x4EFFFFFF, 0x4F000000, // floats straddling MaxInt32
	0xCF000000, 0xCF000001, // floats straddling MinInt32
	0x7FFFFFFF, 0x80000001, // MaxInt32, MinInt32+1 as ints
	0xFFFFFFFF,             // -1 as int, NaN as float
	0x0000001F, 0x00000020, // shift counts at the mod-32 wrap
	0x40490FDB, // pi
	0xC2F6E979, // -123.456
	0x501502F9, // 1e10
}

// TestCompKernelsBitExact proves every specialized comp kernel computes
// exactly what the reference lane evaluator (isa.EvalLane) computes,
// lane for lane, across the adversarial pattern matrix.
func TestCompKernelsBitExact(t *testing.T) {
	n := len(kernelPatterns)
	for op := isa.ALUOp(1); op.ValidForComp(); op++ {
		k := compKernels[op]
		if k == nil {
			t.Fatalf("comp op %v has no functional kernel", op)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var a, b, acc, d engine.Vector
				for l := 0; l < isa.VecLanes; l++ {
					a[l] = kernelPatterns[(i+l)%n]
					b[l] = kernelPatterns[(j+l)%n]
					acc[l] = kernelPatterns[(i+j+l)%n]
				}
				d = acc
				k(d[:], a[:], b[:])
				for l := 0; l < isa.VecLanes; l++ {
					want := isa.EvalLane(op, a[l], b[l], acc[l])
					if d[l] != want {
						t.Fatalf("%v lane %d: a=%#x b=%#x acc=%#x: kernel=%#x EvalLane=%#x",
							op, l, a[l], b[l], acc[l], d[l], want)
					}
				}
			}
		}
	}
	if compKernels[isa.ALUInvalid] != nil {
		t.Fatal("kernel table maps the invalid op")
	}
	if len(compKernels) != isa.NumALUOps+1 {
		t.Fatalf("kernel table has %d entries for %d ops", len(compKernels), isa.NumALUOps)
	}
}

// assembleProg assembles and finalizes a program or fails the test.
func assembleProg(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

// seedArch fills a loaded vault's architectural state
// deterministically: DataRF lanes from the adversarial pattern pool,
// spare AddrRF entries with small integers, a4..a7 with aligned
// bank/PGSM addresses for indirect tests, the low bank bytes, and the
// low VSM bytes. The same sequence lands on every vault it is applied
// to.
func seedArch(v *Vault) {
	u := uint32(0x9E3779B9)
	next := func() uint32 { u = u*1664525 + 1013904223; return u }
	for p, slot := range v.peList {
		for r := 0; r < v.Cfg.DataRFEntries; r++ {
			lanes := vec(v.dreg(r), p)
			for l := range lanes {
				lanes[l] = kernelPatterns[int(next()>>8)%len(kernelPatterns)]
			}
		}
		for r := 8; r < v.Cfg.AddrRFEntries; r++ {
			v.areg(r)[p] = next() % 1024
		}
		v.areg(4)[p], v.areg(5)[p] = 0x40, 0x80
		v.areg(6)[p], v.areg(7)[p] = 0x100, 0x30
		var buf [512]byte
		for i := range buf {
			buf[i] = byte(next() >> 16)
		}
		if err := slot.pe.WriteBank(0, buf[:]); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 256; i++ {
		v.VSM[i] = byte(i*7 + 3)
	}
}

// runVaultMode runs p to completion on a fresh vault, seeded after Load
// (which clears the registers), in the given mode and returns the vault.
func runVaultMode(t *testing.T, cfg *sim.Config, p *isa.Program, mode sim.Mode) *Vault {
	t.Helper()
	v := New(cfg, 0, 0, nil)
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	seedArch(v)
	v.BeginRun(sim.RunOptions{Mode: mode}, nil)
	defer v.EndRun()
	for {
		done, err := v.RunPhase()
		if err != nil {
			t.Fatalf("%v mode: %v", mode, err)
		}
		if done {
			return v
		}
	}
}

// compareArch fails the test wherever two vaults' architectural state
// (CRF, register slab, bank bytes, PGSM, VSM) differs.
func compareArch(t *testing.T, vc, vf *Vault) {
	t.Helper()
	if !reflect.DeepEqual(vc.CRF, vf.CRF) {
		t.Errorf("CRF diverged:\n cycle %v\n func  %v", vc.CRF, vf.CRF)
	}
	if !reflect.DeepEqual(vc.drf, vf.drf) {
		t.Error("DataRF diverged")
	}
	if !reflect.DeepEqual(vc.arf, vf.arf) {
		t.Error("AddrRF diverged")
	}
	if !bytes.Equal(vc.VSM, vf.VSM) {
		t.Error("VSM bytes diverged")
	}
	for gi := range vc.PGs {
		if !bytes.Equal(vc.PGs[gi].PGSM, vf.PGs[gi].PGSM) {
			t.Errorf("PG %d PGSM diverged", gi)
		}
		for pi := range vc.PGs[gi].PEs {
			cpe, fpe := vc.PGs[gi].PEs[pi], vf.PGs[gi].PEs[pi]
			cb, err := cpe.ReadBank(0, 0x400)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := fpe.ReadBank(0, 0x400)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cb, fb) {
				t.Errorf("PE %d/%d bank bytes diverged", gi, pi)
			}
		}
	}
}

// diffSrc runs src in cycle mode and functional mode on identically
// seeded vaults and requires identical architectural outcomes.
func diffSrc(t *testing.T, src string) {
	t.Helper()
	cfg := sim.TestTiny()
	p := assembleProg(t, src)
	vc := runVaultMode(t, &cfg, p, sim.CycleMode)
	vf := runVaultMode(t, &cfg, p, sim.FunctionalMode)
	compareArch(t, vc, vf)
	if vc.Stats.Issued != vf.Stats.Issued {
		t.Errorf("Issued: cycle %d, functional %d", vc.Stats.Issued, vf.Stats.Issued)
	}
	if vf.Stats.Cycles != 0 {
		t.Errorf("functional mode advanced the clock to %d", vf.Stats.Cycles)
	}
}

// compSweepSrc emits one comp instruction per ALU op in the given mode,
// each with its own destination so no result is overwritten before the
// final comparison.
func compSweepSrc(mode, opts string) string {
	var b strings.Builder
	for op, i := isa.ALUOp(1), 0; op.ValidForComp(); op, i = op+1, i+1 {
		fmt.Fprintf(&b, "comp %s %s d%d, d%d, d%d, %s\n",
			op, mode, 8+i, i%8, (i+3)%8, opts)
	}
	return b.String()
}

func TestFunctionalCompSweepVVFull(t *testing.T) {
	diffSrc(t, compSweepSrc("vv", "vm=0xf, sm=*"))
}

func TestFunctionalCompSweepVSFull(t *testing.T) {
	diffSrc(t, compSweepSrc("vs", "vm=0xf, sm=*"))
}

func TestFunctionalCompSweepPartialSimbMask(t *testing.T) {
	// Full vector mask but only PEs 1 and 2 selected: the kernel writes
	// scratch and only the selected PEs' lanes are copied back.
	diffSrc(t, compSweepSrc("vv", "vm=0xf, sm=0x6"))
	diffSrc(t, compSweepSrc("vs", "vm=0xf, sm=0x6"))
}

func TestFunctionalCompSweepPartialVecMask(t *testing.T) {
	// Partial vector mask: only the selected lanes are copied back.
	diffSrc(t, compSweepSrc("vv", "vm=0x5, sm=*"))
	diffSrc(t, compSweepSrc("vs", "vm=0xa, sm=0x7"))
}

func TestFunctionalCompAliasing(t *testing.T) {
	// dst aliasing src1/src2, including the VS broadcast whose lane 0 is
	// overwritten mid-instruction unless the broadcast is materialized
	// first.
	diffSrc(t, `
comp iadd vs d2, d0, d2, vm=0xf, sm=*
comp fmul vs d3, d3, d3, vm=0xf, sm=0x7
comp fmin vs d4, d1, d4, vm=0xf, sm=*
comp imac vv d5, d5, d5, vm=0xf, sm=*
comp fmac vs d6, d6, d6, vm=0xf, sm=*
`)
}

func TestFunctionalCalcARF(t *testing.T) {
	diffSrc(t, `
calc_arf iadd a8, a9, #12, sm=*
calc_arf iadd a9, a10, #-4, sm=0x5
calc_arf isub a10, a11, #3, sm=*
calc_arf shl a11, a12, #2, sm=0x3
calc_arf iadd a12, a13, a14, sm=*
calc_arf mov a13, a8, a8, sm=0x9
`)
}

func TestFunctionalMemoryOps(t *testing.T) {
	diffSrc(t, `
ld_rf d1, 0x0, sm=*
ld_rf d2, 0x10, vm=0x5, sm=*
calc_arf iadd a4, a0, #64, sm=*
ld_rf d3, @a4, sm=*
st_rf d1, 0x200, sm=*
st_rf d2, 0x210, vm=0x3, sm=0x7
ld_pgsm 0x0, 0x20, sm=*
st_pgsm 0x240, 0x20, sm=*
ld_pgsm @a4, @a6, sm=0x5
st_pgsm @a5, @a7, sm=0xa
rd_pgsm d4, 0x20, sm=*
rd_pgsm d5, 0x20, vm=0x3, sm=*
wr_pgsm d1, 0x40, sm=*
wr_pgsm d2, 0x60, vm=0x9, sm=0x3
rd_pgsm d6, @a7, sm=0x6
mov_drf d7, a4, lane=1, sm=*
mov_arf a15, d1, lane=2, sm=*
reset d8, sm=*
seti_vsm 0x10, #305419896
rd_vsm d9, 0x10, sm=*
rd_vsm d10, 0x0, vm=0x3, sm=0x5
wr_vsm d1, 0x80, sm=*
`)
}

func TestFunctionalControlFlow(t *testing.T) {
	diffSrc(t, `
seti_crf c1, #3
seti_crf c0, =loop
loop:
comp iadd vv d10, d10, d1, vm=0xf, sm=*
sync 1
calc_crf isub c1, c1, #1
cjump c1, c0
seti_crf c2, #0
cjump c2, c0
calc_crf iadd c5, c1, c2
calc_crf imul c6, c5, #7
seti_crf c3, =end
jump c3
seti_crf c4, #99
end:
sync 1
`)
}

// TestFunctionalErrorParity runs programs that fault mid-stream in both
// modes and requires the same error text (the pc/op wrapping and the
// underlying cause are mode-independent).
func TestFunctionalErrorParity(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"vsm-oob-read", "rd_vsm d0, 0x3fffc, sm=0x1", "VSM access"},
		{"vsm-oob-write", "wr_vsm d0, 0x3fffc, sm=0x1", "VSM access"},
		{"seti-vsm-oob", "seti_vsm 0x3fffd, #1", "beyond"},
		{"jump-oob", "seti_crf c0, #9999\njump c0", "jump target"},
	}
	cfg := sim.TestTiny()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := assembleProg(t, tc.src)
			errs := [2]error{}
			for mi, mode := range []sim.Mode{sim.CycleMode, sim.FunctionalMode} {
				v := New(&cfg, 0, 0, nil)
				if err := v.Load(p); err != nil {
					t.Fatal(err)
				}
				v.BeginRun(sim.RunOptions{Mode: mode}, nil)
				for {
					done, err := v.RunPhase()
					if err != nil {
						errs[mi] = err
						break
					}
					if done {
						break
					}
				}
				v.EndRun()
				if errs[mi] == nil {
					t.Fatalf("%v mode: program did not fault", mode)
				}
				if !strings.Contains(errs[mi].Error(), tc.want) {
					t.Fatalf("%v mode: error %q does not mention %q", mode, errs[mi], tc.want)
				}
			}
			if errs[0].Error() != errs[1].Error() {
				t.Fatalf("error text diverged:\n cycle      %q\n functional %q", errs[0], errs[1])
			}
		})
	}
}

func TestFunctionalReqWithoutRemote(t *testing.T) {
	cfg := sim.TestTiny()
	p := assembleProg(t, "req chip=0, vault=1, pg=0, pe=1, dram=0x0, vsm=0x0")
	v := New(&cfg, 0, 0, nil)
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	v.BeginRun(sim.RunOptions{Mode: sim.FunctionalMode}, nil)
	defer v.EndRun()
	_, err := v.RunPhase()
	if err == nil || !strings.Contains(err.Error(), "no remote fabric attached") {
		t.Fatalf("req without remote: %v", err)
	}
}

// spinProg is an infinite loop that never syncs: the subject for every
// budget and interrupt test.
func spinProg(t *testing.T) *isa.Program {
	t.Helper()
	return assembleProg(t, "seti_crf c0, =loop\nloop:\njump c0")
}

func TestFunctionalMaxPhaseSteps(t *testing.T) {
	cfg := sim.TestTiny()
	v := New(&cfg, 0, 0, nil)
	if err := v.Load(spinProg(t)); err != nil {
		t.Fatal(err)
	}
	v.BeginRun(sim.RunOptions{MaxPhaseSteps: 64, Mode: sim.FunctionalMode}, nil)
	defer v.EndRun()
	_, err := v.RunPhase()
	if !errors.Is(err, sim.ErrCycleBudget) {
		t.Fatalf("want ErrCycleBudget, got %v", err)
	}
	if !strings.Contains(err.Error(), "in one phase without sync") {
		t.Fatalf("unexpected budget message: %v", err)
	}
}

func TestFunctionalMaxCyclesAsInstructionBound(t *testing.T) {
	cfg := sim.TestTiny()
	v := New(&cfg, 0, 0, nil)
	if err := v.Load(spinProg(t)); err != nil {
		t.Fatal(err)
	}
	v.BeginRun(sim.RunOptions{MaxCycles: 100, Mode: sim.FunctionalMode}, nil)
	defer v.EndRun()
	_, err := v.RunPhase()
	if !errors.Is(err, sim.ErrCycleBudget) {
		t.Fatalf("want ErrCycleBudget, got %v", err)
	}
	if !strings.Contains(err.Error(), "instructions into the run") {
		t.Fatalf("functional MaxCycles should trip as an instruction bound: %v", err)
	}
}

func TestFunctionalInterruptHook(t *testing.T) {
	cfg := sim.TestTiny()
	errStop := errors.New("stop requested")
	calls := 0
	v := New(&cfg, 0, 0, nil)
	if err := v.Load(spinProg(t)); err != nil {
		t.Fatal(err)
	}
	v.BeginRun(sim.RunOptions{Mode: sim.FunctionalMode}, func() error {
		calls++
		if calls >= 2 {
			return errStop
		}
		return nil
	})
	defer v.EndRun()
	_, err := v.RunPhase()
	if !errors.Is(err, errStop) {
		t.Fatalf("interrupt error not propagated: %v", err)
	}
	if calls != 2 {
		t.Fatalf("interrupt hook called %d times, want 2", calls)
	}
}
