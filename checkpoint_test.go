package ipim

// Differential harness for checkpoint/restore (docs/ARCHITECTURE.md,
// "Checkpoint format"). The contract under test: run to barrier N,
// checkpoint, restore onto a FRESH machine, run to completion — and the
// pixels, the full sim.Stats, and the machine's final architectural
// state (compared as checkpoint bytes, which cover the fault
// decision-stream positions and every DRAM/NoC counter) are
// bit-identical to the run that was never interrupted. The matrix
// crosses workloads (including the cross-vault Histogram and the DNN
// GEMM) with serial/parallel phase workers and fault injection on/off;
// a checkpointing run must also be bit-identical to a non-checkpointing
// one (observation must not perturb).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ckptArtifact compiles the named workload for cfg. Names with the
// "dnn:" prefix resolve in the DNN/GEMM family; the bool reports
// whether the pipeline reduces to histogram bins.
func ckptArtifact(t *testing.T, cfg *Config, name string, seed uint64) (*Artifact, *Image, bool) {
	t.Helper()
	var pipe *Pipeline
	var img *Image
	if dn, ok := strings.CutPrefix(name, "dnn:"); ok {
		wl, err := DNNWorkloadByName(dn)
		if err != nil {
			t.Fatal(err)
		}
		pipe = wl.Build().Pipe
		img = dnnImg(wl.TestW, wl.TestH)
	} else {
		wl, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pipe = wl.Build().Pipe
		img = Synth(2*wl.TestW, 2*wl.TestH, seed)
	}
	art, err := Compile(cfg, pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return art, img, strings.Contains(name, "Histogram")
}

// ckptMachine builds a machine with the execution knobs that are host
// state, not architectural state — the restore path deliberately does
// not serialize them, so tests re-apply them to restored machines.
func ckptMachine(t *testing.T, cfg Config, workers int, plan *FaultPlan) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetParallelism(workers)
	m.SetFaultPlan(plan)
	return m
}

// ckptExec runs art through RunContext/RunHistogramContext, reducing
// either result shape to one []float32.
func ckptExec(t *testing.T, m *Machine, art *Artifact, img *Image, hist bool, opts RunOptions) (Stats, []float32) {
	t.Helper()
	if hist {
		bins, stats, err := RunHistogramContext(context.Background(), m, art, img, opts)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out := make([]float32, len(bins))
		for i, b := range bins {
			out[i] = float32(b)
		}
		return stats, out
	}
	out, stats, err := RunContext(context.Background(), m, art, img, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats, out.Pix
}

// ckptResume finishes the interrupted run a restored machine carries.
func ckptResume(t *testing.T, m *Machine, art *Artifact, hist bool) (Stats, []float32) {
	t.Helper()
	if hist {
		bins, stats, err := ResumeHistogram(context.Background(), m, art, RunOptions{})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		out := make([]float32, len(bins))
		for i, b := range bins {
			out[i] = float32(b)
		}
		return stats, out
	}
	out, stats, err := ResumeRun(context.Background(), m, art, RunOptions{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return stats, out.Pix
}

// finalState snapshots a machine's complete post-run architectural
// state. Byte equality here is the strongest differential: it covers
// bank contents, controller timing, fault decision-stream positions and
// every counter the Stats fold does not expose.
func finalState(t *testing.T, m *Machine) []byte {
	t.Helper()
	data, err := m.CheckpointBytes()
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	return data
}

// ckptDifferential runs the full contract for one matrix cell:
// uninterrupted vs checkpointing-while-running vs restored-and-resumed
// at the first, middle and last barrier checkpoints.
func ckptDifferential(t *testing.T, cfg Config, wlName string, workers int, plan *FaultPlan, mode Mode) {
	t.Helper()
	art, img, hist := ckptArtifact(t, &cfg, wlName, 11)

	ref := ckptMachine(t, cfg, workers, plan)
	refStats, refOut := ckptExec(t, ref, art, img, hist, RunOptions{Mode: mode})
	refFinal := finalState(t, ref)

	var ckpts [][]byte
	mc := ckptMachine(t, cfg, workers, plan)
	ckStats, ckOut := ckptExec(t, mc, art, img, hist, RunOptions{
		Mode:            mode,
		CheckpointEvery: 1,
		CheckpointSink: func(data []byte) error {
			ckpts = append(ckpts, append([]byte(nil), data...))
			return nil
		},
	})
	if len(ckpts) == 0 {
		t.Fatal("run took no checkpoints — the differential is vacuous")
	}
	if !reflect.DeepEqual(refStats, ckStats) {
		t.Errorf("checkpointing perturbed the run:\nplain: %+v\nckpt:  %+v", refStats, ckStats)
	}
	if !reflect.DeepEqual(refOut, ckOut) {
		t.Error("checkpointing perturbed the functional output")
	}

	picks := map[int]bool{0: true, len(ckpts) / 2: true, len(ckpts) - 1: true}
	for i := range picks {
		m2, err := RestoreMachine(bytes.NewReader(ckpts[i]), cfg)
		if err != nil {
			t.Fatalf("restore checkpoint %d/%d: %v", i, len(ckpts), err)
		}
		m2.SetParallelism(workers)
		if !m2.HasResume() {
			t.Fatalf("checkpoint %d carries no interrupted run", i)
		}
		gotStats, gotOut := ckptResume(t, m2, art, hist)
		if !reflect.DeepEqual(refStats, gotStats) {
			t.Errorf("checkpoint %d/%d: resumed stats diverge:\nwant %+v\ngot  %+v",
				i, len(ckpts), refStats, gotStats)
		}
		if !reflect.DeepEqual(refOut, gotOut) {
			t.Errorf("checkpoint %d/%d: resumed output diverges", i, len(ckpts))
		}
		if got := finalState(t, m2); !bytes.Equal(refFinal, got) {
			t.Errorf("checkpoint %d/%d: final machine state diverges (%d vs %d bytes)",
				i, len(ckpts), len(refFinal), len(got))
		}
	}
}

// TestCheckpointResumeDifferential is the acceptance matrix: four
// workloads (incl. the DNN GEMM and the cross-vault Histogram) ×
// {serial, 4 workers} × fault rates {off, 1e-6}, every cell
// bit-identical across an interruption.
func TestCheckpointResumeDifferential(t *testing.T) {
	for _, wlName := range []string{"GaussianBlur", "Brighten", "Histogram", "dnn:GEMM"} {
		cfg := detConfig()
		if strings.HasPrefix(wlName, "dnn:") {
			cfg = TinyConfig()
		}
		for _, workers := range []int{1, 4} {
			for _, rate := range []float64{0, 1e-6} {
				var plan *FaultPlan
				if rate > 0 {
					plan = &FaultPlan{Seed: 9, DRAMBitFlipRate: rate, LinkFaultRate: rate, LinkRetryPenalty: 10}
				}
				name := fmt.Sprintf("%s/workers=%d/faults=%g", wlName, workers, rate)
				t.Run(name, func(t *testing.T) {
					ckptDifferential(t, cfg, wlName, workers, plan, CycleMode)
				})
			}
		}
	}
}

// TestCheckpointResumeLooserBudget pins how a budget-aborted run is
// continued. Its last checkpoint, resumed with zero options, keeps the
// checkpointed MaxCycles and trips it again; resumed with a looser
// MaxCycles, it completes with the bins and Stats of an unbudgeted run
// that was never interrupted.
func TestCheckpointResumeLooserBudget(t *testing.T) {
	cfg := detConfig()
	art, img, _ := ckptArtifact(t, &cfg, "Histogram", 11)
	refBins, refStats, err := RunHistogram(ckptMachine(t, cfg, 1, nil), art, img)
	if err != nil {
		t.Fatal(err)
	}

	var last []byte
	taken := 0
	m := ckptMachine(t, cfg, 1, nil)
	_, _, err = RunHistogramContext(context.Background(), m, art, img, RunOptions{
		MaxCycles:       refStats.Cycles / 2,
		CheckpointEvery: 1,
		CheckpointSink: func(data []byte) error {
			last = append(last[:0], data...)
			taken++
			return nil
		},
	})
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("budgeted run: err = %v, want ErrCycleBudget", err)
	}
	if taken < 2 {
		t.Fatalf("budgeted run took %d checkpoints; want a mid-run one", taken)
	}

	tight, err := RestoreMachine(bytes.NewReader(last), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeHistogram(context.Background(), tight, art, RunOptions{}); !errors.Is(err, ErrCycleBudget) {
		t.Errorf("resume under the checkpointed budget: err = %v, want ErrCycleBudget", err)
	}

	loose, err := RestoreMachine(bytes.NewReader(last), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bins, stats, err := ResumeHistogram(context.Background(), loose, art, RunOptions{MaxCycles: 2 * refStats.Cycles})
	if err != nil {
		t.Fatalf("resume under a looser budget: %v", err)
	}
	if !reflect.DeepEqual(refBins, bins) {
		t.Error("resumed bins diverge from the uninterrupted run")
	}
	if !reflect.DeepEqual(refStats, stats) {
		t.Errorf("resumed stats diverge:\nwant %+v\ngot  %+v", refStats, stats)
	}
}

// TestCheckpointResumeFunctional pins the functional-mode resume path,
// where checkpoint pacing rides the issue counter instead of the clock.
func TestCheckpointResumeFunctional(t *testing.T) {
	ckptDifferential(t, detConfig(), "GaussianBlur", 4, nil, FunctionalMode)
}

// TestCheckpointResumeAcrossWorkerCounts restores a serial run's
// checkpoint onto a 4-worker machine and vice versa: the worker pool is
// host scheduling, not architectural state, so the results must still
// be bit-identical.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	cfg := detConfig()
	art, img, hist := ckptArtifact(t, &cfg, "Histogram", 11)
	ref := ckptMachine(t, cfg, 1, nil)
	refStats, refOut := ckptExec(t, ref, art, img, hist, RunOptions{})
	refFinal := finalState(t, ref)

	for _, from := range []int{1, 4} {
		for _, to := range []int{1, 4} {
			var ckpts [][]byte
			mc := ckptMachine(t, cfg, from, nil)
			ckptExec(t, mc, art, img, hist, RunOptions{
				CheckpointEvery: 1,
				CheckpointSink: func(data []byte) error {
					ckpts = append(ckpts, append([]byte(nil), data...))
					return nil
				},
			})
			if len(ckpts) < 2 {
				t.Fatalf("workers=%d: run took %d checkpoints; want >= 2", from, len(ckpts))
			}
			m2, err := RestoreMachine(bytes.NewReader(ckpts[len(ckpts)/2]), cfg)
			if err != nil {
				t.Fatal(err)
			}
			m2.SetParallelism(to)
			gotStats, gotOut := ckptResume(t, m2, art, hist)
			if !reflect.DeepEqual(refStats, gotStats) {
				t.Errorf("checkpoint at workers=%d resumed at workers=%d: stats diverge", from, to)
			}
			if !reflect.DeepEqual(refOut, gotOut) {
				t.Errorf("checkpoint at workers=%d resumed at workers=%d: output diverges", from, to)
			}
			if got := finalState(t, m2); !bytes.Equal(refFinal, got) {
				t.Errorf("checkpoint at workers=%d resumed at workers=%d: final state diverges", from, to)
			}
		}
	}
}

// TestCheckpointResumeUnderActiveFaults uses a rate high enough that
// bit flips and link faults actually fire on both sides of the
// interruption: a mis-restored decision-stream position would shift
// every subsequent fault site and show up in the ECC counters, the
// retransmit counters and the final-state comparison.
func TestCheckpointResumeUnderActiveFaults(t *testing.T) {
	plan := &FaultPlan{Seed: 4, DRAMBitFlipRate: 5e-3, DRAMMultiBitFraction: 0.5, LinkFaultRate: 1e-3, LinkRetryPenalty: 20}
	cfg := detConfig()
	art, img, hist := ckptArtifact(t, &cfg, "Histogram", 11)
	ref := ckptMachine(t, cfg, 4, plan)
	refStats, refOut := ckptExec(t, ref, art, img, hist, RunOptions{})
	if refStats.DRAM.ECCCorrected == 0 {
		t.Fatal("no ECC corrections fired — the fault differential is vacuous")
	}
	if refStats.NoC.LinkFaults == 0 {
		t.Fatal("no link faults fired — the fault differential is vacuous")
	}
	refFinal := finalState(t, ref)

	var ckpts [][]byte
	mc := ckptMachine(t, cfg, 4, plan)
	ckptExec(t, mc, art, img, hist, RunOptions{
		CheckpointEvery: 1,
		CheckpointSink: func(data []byte) error {
			ckpts = append(ckpts, append([]byte(nil), data...))
			return nil
		},
	})
	for _, i := range []int{0, len(ckpts) / 2, len(ckpts) - 1} {
		m2, err := RestoreMachine(bytes.NewReader(ckpts[i]), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m2.SetParallelism(4)
		gotStats, gotOut := ckptResume(t, m2, art, hist)
		if !reflect.DeepEqual(refStats, gotStats) {
			t.Errorf("checkpoint %d: fault-injected stats diverge:\nwant %+v\ngot  %+v", i, refStats, gotStats)
		}
		if !reflect.DeepEqual(refOut, gotOut) {
			t.Errorf("checkpoint %d: fault-injected output diverges", i)
		}
		if got := finalState(t, m2); !bytes.Equal(refFinal, got) {
			t.Errorf("checkpoint %d: fault-injected final state diverges", i)
		}
	}
}

// TestCheckpointBetweenRuns pins the idle-machine path: a checkpoint
// taken between runs round-trips byte-identically and carries no
// interrupted run, so Resume reports ErrNoResume.
func TestCheckpointBetweenRuns(t *testing.T) {
	cfg := detConfig()
	art, img, _ := ckptArtifact(t, &cfg, "Brighten", 5)
	m := ckptMachine(t, cfg, 1, nil)
	if _, _, err := Run(m, art, img); err != nil {
		t.Fatal(err)
	}
	data := finalState(t, m)
	m2, err := RestoreMachine(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.HasResume() {
		t.Error("idle checkpoint claims an interrupted run")
	}
	if _, err := m2.Resume(); !errors.Is(err, ErrNoResume) {
		t.Errorf("Resume on idle restore: got %v, want ErrNoResume", err)
	}
	round := finalState(t, m2)
	if !bytes.Equal(data, round) {
		t.Errorf("idle checkpoint does not round-trip (%d vs %d bytes)", len(data), len(round))
	}
}

// TestCheckpointConfigMismatch: restoring onto a differently shaped
// machine must fail with ErrCheckpointConfig, not corrupt state.
func TestCheckpointConfigMismatch(t *testing.T) {
	cfg := detConfig()
	m := ckptMachine(t, cfg, 1, nil)
	data := finalState(t, m)
	other := detConfig()
	other.PGsPerVault = 1
	if _, err := RestoreMachine(bytes.NewReader(data), other); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("restore onto mismatched config: got %v, want ErrCheckpointConfig", err)
	}
}

// TestCheckpointRejectsVersion1: checkpoints in the version-1 layout,
// which still carried per-mesh link images and a second mode byte, in
// the version-2 layout, whose run section still carried a baseline
// Stats snapshot and per-vault budget origins, and in the version-3
// layout, whose DRAM controller images held times rebased to the vault
// clock, are refused by their version field before any payload is
// parsed.
func TestCheckpointRejectsVersion1(t *testing.T) {
	cfg := detConfig()
	for _, version := range []uint32{1, 2, 3} {
		data := finalState(t, ckptMachine(t, cfg, 1, nil))
		binary.LittleEndian.PutUint32(data[len("IPIMCKPT"):], version)
		if _, err := RestoreMachine(bytes.NewReader(data), cfg); !errors.Is(err, ErrCheckpointVersion) {
			t.Errorf("restore of a version-%d checkpoint: got %v, want ErrCheckpointVersion", version, err)
		}
	}
}
