package cube

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ipim/internal/sim"
)

// brightenInputs loads the brighten kernel's VSM constant and distinct
// per-PE bank contents onto m.
func brightenInputs(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.WriteVSM(0, 0, 0, f32bytes(2.0, 2.0, 2.0, 2.0)); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < m.Cfg.PGsPerVault; pg++ {
		for pe := 0; pe < m.Cfg.PEsPerPG; pe++ {
			var in []float32
			for i := 0; i < 16; i++ {
				in = append(in, float32(pg*100+pe*10)+float32(i))
			}
			if err := m.WriteBank(0, 0, pg, pe, 0, f32bytes(in...)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCheckpointWriterRestoreMachineRoundTrip(t *testing.T) {
	src := newTinyMachine(t)
	brightenInputs(t, src)
	if _, err := src.RunVault(0, 0, mustAssemble(t, brightenSrc)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	got, err := RestoreMachine(bytes.NewReader(buf.Bytes()), sim.TestTiny())
	if err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	if got.HasResume() {
		t.Error("idle checkpoint must not arm a resume")
	}
	a, err := src.ReadBank(0, 0, 0, 0, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.ReadBank(0, 0, 0, 0, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("restored machine's bank contents differ from the source")
	}
	// An idle machine with no resume section rejects Resume.
	if _, err := got.Resume(); !errors.Is(err, ErrNoResume) {
		t.Errorf("Resume on an idle restore = %v, want ErrNoResume", err)
	}

	// The wrong target configuration is a typed rejection.
	if _, err := RestoreMachine(bytes.NewReader(buf.Bytes()), sim.OneVault()); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("mismatched config = %v, want ErrCheckpointConfig", err)
	}
	// And hostile bytes never half-build a machine.
	if _, err := RestoreMachine(bytes.NewReader(buf.Bytes()[:40]), sim.TestTiny()); err == nil {
		t.Error("truncated container accepted")
	}
}

func TestResumeFromMidRunCheckpoint(t *testing.T) {
	// Reference: the uninterrupted run.
	ref := newTinyMachine(t)
	brightenInputs(t, ref)
	wantStats, err := ref.RunVault(0, 0, mustAssemble(t, brightenSrc))
	if err != nil {
		t.Fatal(err)
	}
	wantOut, err := ref.ReadBank(0, 0, 0, 1, 256, 64)
	if err != nil {
		t.Fatal(err)
	}

	// The checkpointed run: capture the run-start checkpoint (the only
	// barrier a sync-free program crosses), then abandon the machine.
	src := newTinyMachine(t)
	brightenInputs(t, src)
	var ck []byte
	opts := sim.RunOptions{CheckpointEvery: 1, CheckpointSink: func(data []byte) error {
		ck = append(ck[:0], data...)
		return nil
	}}
	if _, err := src.RunVaultContext(context.Background(), 0, 0, mustAssemble(t, brightenSrc), opts); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("checkpoint sink never fired")
	}

	got, err := RestoreMachine(bytes.NewReader(ck), sim.TestTiny())
	if err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	if !got.HasResume() {
		t.Fatal("mid-run checkpoint did not arm a resume")
	}
	stats, err := got.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if stats != wantStats {
		t.Errorf("resumed Stats differ from the uninterrupted run:\n got %+v\nwant %+v", stats, wantStats)
	}
	gotOut, err := got.ReadBank(0, 0, 0, 1, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotOut, wantOut) {
		t.Error("resumed output differs from the uninterrupted run")
	}
	// The resume is consumed: a second call is a typed error.
	if got.HasResume() {
		t.Error("HasResume still true after the resume was consumed")
	}
	if _, err := got.Resume(); !errors.Is(err, ErrNoResume) {
		t.Errorf("second Resume = %v, want ErrNoResume", err)
	}
}

// TestResumedFunctionalBudgetCountsFromRunStart: a functional run's
// MaxCycles bounds the run's issued instructions from its start, so a
// run checkpointed without a budget and resumed under one trips exactly
// where an uninterrupted run under that budget does, not a resume's
// worth of instructions later.
func TestResumedFunctionalBudgetCountsFromRunStart(t *testing.T) {
	// Two 42-instruction phases around one barrier: 85 issues in all.
	prog := mustAssemble(t, `
seti_crf c1, #20
seti_crf c2, =a
a:
calc_crf isub c1, c1, #1
cjump c1, c2
sync 0
seti_crf c1, #20
seti_crf c2, =b
b:
calc_crf isub c1, c1, #1
cjump c1, c2
`)
	budget := sim.RunOptions{Mode: sim.FunctionalMode, MaxCycles: 60}
	_, want := newTinyMachine(t).RunVaultContext(context.Background(), 0, 0, prog, budget)
	if !errors.Is(want, sim.ErrCycleBudget) {
		t.Fatalf("budgeted run: err = %v, want ErrCycleBudget", want)
	}

	var ck []byte
	opts := sim.RunOptions{Mode: sim.FunctionalMode, CheckpointEvery: 1, CheckpointSink: func(data []byte) error {
		ck = append(ck[:0], data...)
		return nil
	}}
	if _, err := newTinyMachine(t).RunVaultContext(context.Background(), 0, 0, prog, opts); err != nil {
		t.Fatal(err)
	}
	m, err := RestoreMachine(bytes.NewReader(ck), sim.TestTiny())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Vault(0, 0).Stats.Issued; got != 43 {
		t.Fatalf("last checkpoint holds %d issues, want 43 (the barrier)", got)
	}
	_, err = m.ResumeContext(context.Background(), sim.RunOptions{MaxCycles: budget.MaxCycles})
	if err == nil || err.Error() != want.Error() {
		t.Errorf("resumed under the budget: err = %v, want %v", err, want)
	}
}
