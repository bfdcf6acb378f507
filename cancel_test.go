package ipim

// Cancellation and budget tests: the tentpole robustness contract.
//
//   - RunContext under a live-but-never-fired context is bit-identical
//     to Run (the hooks are pure control);
//   - cancellation interrupts even never-syncing adversarial programs
//     and leaves the machine Reset and reusable, with a subsequent run
//     matching a fresh machine bit for bit;
//   - MaxCycles / MaxPhaseSteps budgets abort deterministically: the
//     same budget on the same workload blames the same vault and
//     program counter at every phase-worker count.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The adversarial SIMB corpus: programs a well-formed compiler never
// emits but a /v1/simb client (or a compiler bug) absolutely can.
var adversarialPrograms = map[string]string{
	// Counts forever; never reaches the sync.
	"infinite-loop": `
seti_crf c0, =loop
loop:
calc_crf iadd c1, c1, #1
jump c0
sync 1
`,
	// A two-instruction spin: the branch targets itself via its label.
	"self-branch": `
seti_crf c0, =spin
spin:
jump c0
`,
	// Issues unboundedly without ever syncing, with a conditional
	// branch kept always-taken.
	"never-sync": `
seti_crf c1, #1
seti_crf c0, =loop
loop:
calc_crf iadd c2, c2, #1
cjump c1, c0
`,
}

// assembleAdversarial returns a finalized corpus program.
func assembleAdversarial(t *testing.T, name string) *Program {
	t.Helper()
	src, ok := adversarialPrograms[name]
	if !ok {
		t.Fatalf("no adversarial program %q", name)
	}
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatalf("finalize %s: %v", name, err)
	}
	return p
}

// detRunContext is detRun through the RunContext path, with a LIVE
// (cancellable, never cancelled) context so the per-vault interrupt
// hook is armed and polled — proving the hook itself is timing-free.
func detRunContext(t *testing.T, wlName string, seed uint64, parallelism int) (Stats, []float32) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := detConfig()
	wl, err := WorkloadByName(wlName)
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(2*wl.TestW, 2*wl.TestH, seed)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatalf("compile %s: %v", wlName, err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetParallelism(parallelism)
	if wlName == "Histogram" {
		bins, stats, err := RunHistogramContext(ctx, m, art, img, RunOptions{})
		if err != nil {
			t.Fatalf("run %s: %v", wlName, err)
		}
		out := make([]float32, len(bins))
		for i, b := range bins {
			out[i] = float32(b)
		}
		return stats, out
	}
	out, stats, err := RunContext(ctx, m, art, img, RunOptions{})
	if err != nil {
		t.Fatalf("run %s: %v", wlName, err)
	}
	return stats, out.Pix
}

// TestRunContextMatchesRun: with a non-expiring context and no budget,
// the cancellable path must be bit-identical to Run — stats and output,
// serial and parallel — across the workload sweep.
func TestRunContextMatchesRun(t *testing.T) {
	for _, wlName := range []string{"Brighten", "GaussianBlur", "Shift", "Histogram"} {
		for _, par := range []int{1, 4} {
			ref, refOut := detRun(t, wlName, 11, par)
			got, gotOut := detRunContext(t, wlName, 11, par)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s par=%d: RunContext stats diverge from Run:\nwant %+v\ngot  %+v",
					wlName, par, ref, got)
			}
			if !reflect.DeepEqual(refOut, gotOut) {
				t.Errorf("%s par=%d: RunContext output diverges from Run", wlName, par)
			}
		}
	}
}

// TestCancelAdversarialPrograms: every corpus program must be
// interrupted by a context deadline, report ErrCancelled (wrapping the
// deadline cause), and leave the machine reusable.
func TestCancelAdversarialPrograms(t *testing.T) {
	for name := range adversarialPrograms {
		for _, par := range []int{1, 4} {
			t.Run(name, func(t *testing.T) {
				prog := assembleAdversarial(t, name)
				m, err := NewMachine(TinyConfig())
				if err != nil {
					t.Fatal(err)
				}
				m.SetParallelism(par)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				t0 := time.Now()
				_, err = m.RunSameContext(ctx, prog, RunOptions{})
				elapsed := time.Since(t0)
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("err = %v, want ErrCancelled", err)
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("err = %v, must wrap the context cause", err)
				}
				if elapsed > 10*time.Second {
					t.Errorf("cancellation took %v — interrupt hook not reached", elapsed)
				}
				assertReusableAfterAbort(t, m)
			})
		}
	}
}

// assertReusableAfterAbort runs a real workload on an aborted machine
// and on a factory-fresh one and demands bit-identical stats and
// output: the documented post-abort state (clocks rewound, queues
// drained, DRAM/NoC timing reset) is indistinguishable from new.
func assertReusableAfterAbort(t *testing.T, m *Machine) {
	t.Helper()
	cfg := TinyConfig()
	wl, err := WorkloadByName("Brighten")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(wl.TestW, wl.TestH, 5)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := Run(m, art, img)
	if err != nil {
		t.Fatalf("reuse after abort: %v", err)
	}
	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetParallelism(m.Parallelism())
	wantOut, wantStats, err := Run(fresh, art, img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("post-abort stats differ from a fresh machine:\nfresh:   %+v\nreused:  %+v",
			wantStats, stats)
	}
	if !reflect.DeepEqual(out.Pix, wantOut.Pix) {
		t.Error("post-abort output differs from a fresh machine")
	}
}

// TestMaxCyclesDeterministicErrorPoint: the same MaxCycles budget on
// the same workload must produce the SAME error — same vault, same pc,
// same cycle count in the message — at every phase-worker count.
func TestMaxCyclesDeterministicErrorPoint(t *testing.T) {
	cfg := detConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(2*wl.TestW, 2*wl.TestH, 3)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	// Establish the unbudgeted cost, then budget half of it so the
	// abort lands mid-run.
	ref, _ := detRun(t, "GaussianBlur", 3, 1)
	budget := RunOptions{MaxCycles: ref.Cycles / 2}
	if budget.MaxCycles < 1 {
		t.Fatalf("degenerate reference run: %d cycles", ref.Cycles)
	}

	var wantErr string
	for i, par := range []int{1, 2, 4} {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetParallelism(par)
		_, _, err = RunContext(context.Background(), m, art, img, budget)
		if !errors.Is(err, ErrCycleBudget) {
			t.Fatalf("par=%d: err = %v, want ErrCycleBudget", par, err)
		}
		if i == 0 {
			wantErr = err.Error()
			if !strings.Contains(wantErr, "vault") {
				t.Fatalf("budget error does not name the vault: %q", wantErr)
			}
			continue
		}
		if got := err.Error(); got != wantErr {
			t.Errorf("par=%d: error point diverges:\nwant %q\ngot  %q", par, wantErr, got)
		}
	}
}

// TestMaxPhaseStepsCatchesNeverSync: the per-phase instruction budget
// trips on a program that spins without syncing, where MaxCycles-style
// wall-clock budgets would also work but the step budget is the
// precise diagnostic.
func TestMaxPhaseStepsCatchesNeverSync(t *testing.T) {
	prog := assembleAdversarial(t, "never-sync")
	m, err := NewMachine(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunSameContext(context.Background(), prog, RunOptions{MaxPhaseSteps: 10_000})
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want ErrCycleBudget", err)
	}
	if !strings.Contains(err.Error(), "without sync") {
		t.Errorf("step-budget error should name the failure mode: %q", err)
	}
	assertReusableAfterAbort(t, m)
}

// TestFunctionalCancelAdversarialPrograms: FunctionalMode has no cycle
// clock, so cancellation must ride the issued-instruction counter — an
// adversarial never-syncing program on a functional machine must still
// be interrupted by the context deadline, and the machine must come
// back Reset-equivalent (the comparison runs in cycle mode).
func TestFunctionalCancelAdversarialPrograms(t *testing.T) {
	for name := range adversarialPrograms {
		for _, par := range []int{1, 4} {
			t.Run(name, func(t *testing.T) {
				prog := assembleAdversarial(t, name)
				m, err := NewMachine(TinyConfig())
				if err != nil {
					t.Fatal(err)
				}
				m.SetParallelism(par)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				t0 := time.Now()
				_, err = m.RunSameContext(ctx, prog, RunOptions{Mode: FunctionalMode})
				elapsed := time.Since(t0)
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("err = %v, want ErrCancelled", err)
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("err = %v, must wrap the context cause", err)
				}
				if elapsed > 10*time.Second {
					t.Errorf("cancellation took %v — the functional interrupt poll never fired", elapsed)
				}
				assertReusableAfterAbort(t, m)
			})
		}
	}
}

// TestFunctionalMaxCyclesIsInstructionBudget: with no clock to measure
// against, a functional run reinterprets MaxCycles as an
// issued-instruction bound — conservative (an instruction costs at
// least a cycle), deterministic, and it must actually terminate the
// never-syncing corpus.
func TestFunctionalMaxCyclesIsInstructionBudget(t *testing.T) {
	prog := assembleAdversarial(t, "infinite-loop")
	m, err := NewMachine(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunSameContext(context.Background(), prog, RunOptions{Mode: FunctionalMode, MaxCycles: 10_000})
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want ErrCycleBudget", err)
	}
	if !strings.Contains(err.Error(), "instructions into the run") {
		t.Errorf("functional budget error should name the instruction bound: %q", err)
	}
	assertReusableAfterAbort(t, m)
}

// TestBudgetAbortThenReuse: a MaxCycles abort on a REAL workload (not
// just the adversarial corpus) also leaves the machine equivalent to
// fresh.
func TestBudgetAbortThenReuse(t *testing.T) {
	cfg := TinyConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(wl.TestW, wl.TestH, 9)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := Run(m, art, img)
	if err != nil {
		t.Fatal(err)
	}
	// Abort a second run partway through on the same machine.
	_, _, err = RunContext(context.Background(), m, art, img, RunOptions{MaxCycles: full.Cycles / 3})
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("err = %v, want ErrCycleBudget", err)
	}
	assertReusableAfterAbort(t, m)
}
