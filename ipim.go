// Package ipim is a from-scratch reproduction of "iPIM: Programmable
// In-Memory Image Processing Accelerator Using Near-Bank Architecture"
// (ISCA 2020): a cycle-level simulator of the near-bank accelerator, the
// SIMB ISA, a Halide-style programming frontend with the paper's
// ipim_tile/load_pgsm schedules, the compiler backend with register
// allocation, instruction reordering and memory order enforcement, and
// the full evaluation harness (Figs. 1–13, Tables I–IV).
//
// Quick start:
//
//	cfg := ipim.OneVaultConfig()
//	m, _ := ipim.NewMachine(cfg)
//	wl, _ := ipim.WorkloadByName("GaussianBlur")
//	pipe := wl.Build().Pipe
//	img := ipim.Synth(512, 256, 1)
//	art, _ := ipim.Compile(&cfg, pipe, img.W, img.H, ipim.Opt)
//	out, stats, _ := ipim.Run(m, art, img)
//	_ = out
//	fmt.Println(stats.Cycles, stats.IPC())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results.
package ipim

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ipim/internal/ckpt"
	"ipim/internal/compiler"
	"ipim/internal/cube"
	"ipim/internal/energy"
	"ipim/internal/exp"
	"ipim/internal/fault"
	"ipim/internal/gpu"
	"ipim/internal/halide"
	"ipim/internal/isa"
	"ipim/internal/pixel"
	"ipim/internal/sim"
	"ipim/internal/workloads"
)

// Core types, re-exported from the implementation packages.
type (
	// Config is the machine configuration (paper Table III).
	Config = sim.Config
	// Machine is an assembled iPIM accelerator.
	Machine = cube.Machine
	// Stats aggregates a run's cycles, instruction mix, stalls and
	// component activity.
	Stats = sim.Stats
	// Pipeline is a Halide-style algorithm plus its iPIM schedule.
	Pipeline = halide.Pipeline
	// Func is one pipeline stage definition.
	Func = halide.Func
	// Expr is an algorithm expression node.
	Expr = halide.Expr
	// Options selects the compiler backend optimizations (Fig. 12).
	Options = compiler.Options
	// Artifact is a compiled pipeline plus its data-layout plan.
	Artifact = compiler.Artifact
	// Image is a single-channel FP32 image.
	Image = pixel.Image
	// Workload is one Table II benchmark.
	Workload = workloads.Workload
	// DNNWorkload is one member of the DNN/GEMM workload family (builder,
	// bit-exact host golden reference, and canonical sizes).
	DNNWorkload = workloads.DNNWorkload
	// Program is a SIMB instruction sequence.
	Program = isa.Program
	// GPUProfile is the analytical V100 baseline result.
	GPUProfile = gpu.Profile
	// EnergyBreakdown is the Fig. 9 energy decomposition.
	EnergyBreakdown = energy.Breakdown
	// ExperimentTable is one regenerated figure/table.
	ExperimentTable = exp.Table
	// FaultPlan is a deterministic, seeded fault-injection campaign
	// (attach with Machine.SetFaultPlan; see internal/fault).
	FaultPlan = fault.Plan
	// RunOptions selects one run's execution mode, budgets and
	// checkpointing (pass it to RunContext and friends). Budget checks
	// use only vault-local state, so the error point is deterministic at
	// any worker count.
	RunOptions = sim.RunOptions
	// Mode selects how a run executes: cycle-accurate timing simulation
	// or pure-functional execution (select with RunOptions.Mode).
	Mode = sim.Mode
)

// Execution modes (see sim.Mode). FunctionalMode produces bit-identical
// register/memory/pixel outputs with no cycle accounting — Stats carry
// instruction counts with Cycles = 0 — and runs several times faster on
// the host (docs/BENCHMARKS.md).
const (
	// CycleMode is the full timing simulation (the zero Mode).
	CycleMode = sim.CycleMode
	// FunctionalMode executes functionally only: correct outputs, no
	// clocks. MaxCycles budgets become issued-instruction bounds.
	FunctionalMode = sim.FunctionalMode
)

// ErrTransientFault marks injected transient execution faults; runs
// failing with an error wrapping it may be retried.
var ErrTransientFault = fault.ErrTransient

// Run-control errors. A run aborted by either leaves the machine Reset
// and immediately reusable.
var (
	// ErrCycleBudget marks a run that exhausted RunOptions.MaxCycles or
	// RunOptions.MaxPhaseSteps. Match with errors.Is.
	ErrCycleBudget = sim.ErrCycleBudget
	// ErrCancelled marks a run aborted by context cancellation or
	// timeout; it wraps the context's cause, so
	// errors.Is(err, context.DeadlineExceeded) also works.
	ErrCancelled = sim.ErrCancelled
)

// Checkpoint/restore errors. See docs/ARCHITECTURE.md ("Checkpoint
// format") for the on-disk container and the quiescence contract.
var (
	// ErrCheckpointCorrupt marks a checkpoint rejected by structural or
	// integrity validation (bad magic, CRC mismatch, impossible field).
	// Match with errors.Is; ErrCheckpointTruncated wraps it.
	ErrCheckpointCorrupt = ckpt.ErrCorrupt
	// ErrCheckpointTruncated marks a checkpoint cut short — the usual
	// signature of a crash mid-write (a torn tail).
	ErrCheckpointTruncated = ckpt.ErrTruncated
	// ErrCheckpointVersion marks a checkpoint written by an incompatible
	// schema version.
	ErrCheckpointVersion = ckpt.ErrVersion
	// ErrCheckpointConfig marks a checkpoint taken on a machine with a
	// different configuration than the restore target.
	ErrCheckpointConfig = cube.ErrCheckpointConfig
	// ErrNoResume marks a Resume on a machine whose checkpoint carried no
	// interrupted run (it was taken between runs, not at a barrier).
	ErrNoResume = cube.ErrNoResume
)

// ParseFaultPlan parses a -faults flag spec such as
// "seed=7,dram=1e-5,multibit=0.2,link=1e-6,linkpenalty=20,exec=0.001".
// An empty spec (or "off") returns (nil, nil): faults disabled.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParseSpec(spec) }

// Compiler option presets (paper Sec. VII-E1).
var (
	Opt       = compiler.Opt
	Baseline1 = compiler.Baseline1
	Baseline2 = compiler.Baseline2
	Baseline3 = compiler.Baseline3
	Baseline4 = compiler.Baseline4
)

// DefaultConfig returns the paper's full Table III machine: 8 cubes of
// 16 vaults, 8 process groups x 4 process engines per vault.
func DefaultConfig() Config { return sim.Default() }

// OneVaultConfig returns the representative-vault configuration used by
// the benchmark harness (one full 32-PE vault; DESIGN.md §2).
func OneVaultConfig() Config { return sim.OneVault() }

// TinyConfig returns a small two-vault machine for experimentation.
func TinyConfig() Config { return sim.TestTiny() }

// TinyOneVaultConfig returns a small single-vault machine (required by
// multi-stage halo-exchange pipelines at tiny scale).
func TinyOneVaultConfig() Config { return sim.TestTinyOneVault() }

// ConfigNames lists the named machine configurations accepted by
// ConfigByName, in display order.
func ConfigNames() []string {
	return []string{"default", "onevault", "tiny", "tiny-onevault"}
}

// ConfigByName resolves a named machine configuration ("default",
// "onevault", "tiny", "tiny-onevault"). CLI tools and the serving
// daemon use it so every entry point speaks the same config names.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "default":
		return DefaultConfig(), nil
	case "onevault":
		return OneVaultConfig(), nil
	case "tiny":
		return TinyConfig(), nil
	case "tiny-onevault":
		return TinyOneVaultConfig(), nil
	}
	return Config{}, fmt.Errorf("ipim: unknown machine config %q (want one of %s)",
		name, strings.Join(ConfigNames(), ", "))
}

// OptionNames lists the compiler configurations accepted by
// OptionsByName (the paper's Sec. VII-E1 presets).
func OptionNames() []string {
	return []string{"opt", "baseline1", "baseline2", "baseline3", "baseline4"}
}

// OptionsByName resolves a compiler configuration preset by its paper
// label.
func OptionsByName(name string) (Options, error) {
	switch name {
	case "opt":
		return Opt, nil
	case "baseline1":
		return Baseline1, nil
	case "baseline2":
		return Baseline2, nil
	case "baseline3":
		return Baseline3, nil
	case "baseline4":
		return Baseline4, nil
	}
	return Options{}, fmt.Errorf("ipim: unknown compiler config %q (want one of %s)",
		name, strings.Join(OptionNames(), ", "))
}

// NewMachine assembles a machine for the configuration.
//
// Concurrency contract: a Machine executes one Run/RunHistogram at a
// time (its banks, queues and NoC state are mutated in place), but
// distinct Machines are fully independent — running the same Artifact
// on several Machines concurrently is safe and is how the serving
// daemon scales (see internal/serve and TestMachinesRunConcurrently).
// Every run starts from the state of a machine fresh out of NewMachine,
// apart from memory contents, so a reused Machine reports the Stats a
// fresh one would (TestMachineReuseReportsPerRunStats).
func NewMachine(cfg Config) (*Machine, error) { return cube.New(cfg) }

// Compile maps a pipeline onto the machine configuration.
func Compile(cfg *Config, pipe *Pipeline, imgW, imgH int, opts Options) (*Artifact, error) {
	return compiler.Compile(cfg, pipe, imgW, imgH, opts)
}

// Run loads the input, executes the compiled pipeline on every vault,
// and gathers the output image. Run mutates the machine (banks, queue
// and interconnect state), so a given Machine must not execute two
// runs concurrently; the Artifact and input image are only read and
// may be shared freely across Machines running in parallel.
func Run(m *Machine, art *Artifact, img *Image) (*Image, Stats, error) {
	if err := compiler.LoadInput(m, art, img); err != nil {
		return nil, Stats{}, err
	}
	stats, err := compiler.Execute(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	out, err := compiler.ReadOutput(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, stats, nil
}

// RunHistogram is Run for histogram pipelines: it returns the bins.
func RunHistogram(m *Machine, art *Artifact, img *Image) ([]int32, Stats, error) {
	if err := compiler.LoadInput(m, art, img); err != nil {
		return nil, Stats{}, err
	}
	stats, err := compiler.Execute(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	bins, err := compiler.ReadHistogram(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	return bins, stats, nil
}

// RunContext is Run with cooperative cancellation and an optional
// execution budget. The context is checked at every phase barrier and
// at a bounded instruction interval inside phases, so even a
// never-syncing program is interruptible. On cancellation the error
// wraps ErrCancelled (and the context's cause); on budget exhaustion,
// ErrCycleBudget. Either way the machine has been Reset and is
// immediately reusable. opts applies to this run only; the machine
// keeps no run settings. A RunContext under a non-expiring context and
// zero opts is bit-identical to Run.
func RunContext(ctx context.Context, m *Machine, art *Artifact, img *Image, opts RunOptions) (*Image, Stats, error) {
	if err := compiler.LoadInput(m, art, img); err != nil {
		return nil, Stats{}, err
	}
	stats, err := compiler.ExecuteContext(ctx, m, art, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	out, err := compiler.ReadOutput(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, stats, nil
}

// RunHistogramContext is RunContext for histogram pipelines.
func RunHistogramContext(ctx context.Context, m *Machine, art *Artifact, img *Image, opts RunOptions) ([]int32, Stats, error) {
	if err := compiler.LoadInput(m, art, img); err != nil {
		return nil, Stats{}, err
	}
	stats, err := compiler.ExecuteContext(ctx, m, art, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	bins, err := compiler.ReadHistogram(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	return bins, stats, nil
}

// RestoreMachine assembles a fresh machine for cfg and rewrites its
// full architectural state from a checkpoint previously written by
// Machine.Checkpoint (or streamed out via RunOptions.CheckpointSink).
// The checkpoint must have been taken on an identically configured
// machine (ErrCheckpointConfig otherwise); corrupt, truncated or
// mis-versioned bytes yield the typed errors above and never a
// half-restored machine. If the checkpoint interrupted a run,
// ResumeRun/ResumeHistogram continue it.
func RestoreMachine(r io.Reader, cfg Config) (*Machine, error) {
	return cube.RestoreMachine(r, cfg)
}

// ResumeRun continues the interrupted run a restored machine carries
// (ErrNoResume if there is none) and gathers the output image exactly
// as Run would have. The resumed run keeps the checkpointed execution
// mode and, by default, the checkpointed budget: opts' checkpoint sink
// always applies, and its non-zero MaxCycles, MaxPhaseSteps and
// CheckpointEvery replace the checkpointed values — which is how a
// budget-aborted run is resumed with a looser budget. The contract: checkpoint at barrier N,
// RestoreMachine onto a fresh machine, ResumeRun, and the pixels, Stats
// and fault counters are bit-identical to the run that was never
// interrupted, at any worker count. Note the returned Stats span the
// whole original run, not just the resumed tail.
func ResumeRun(ctx context.Context, m *Machine, art *Artifact, opts RunOptions) (*Image, Stats, error) {
	stats, err := m.ResumeContext(ctx, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	out, err := compiler.ReadOutput(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, stats, nil
}

// ResumeHistogram is ResumeRun for histogram pipelines.
func ResumeHistogram(ctx context.Context, m *Machine, art *Artifact, opts RunOptions) ([]int32, Stats, error) {
	stats, err := m.ResumeContext(ctx, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	bins, err := compiler.ReadHistogram(m, art)
	if err != nil {
		return nil, Stats{}, err
	}
	return bins, stats, nil
}

// Synth generates a deterministic scene-like test image (the DIV8K
// stand-in; DESIGN.md §5).
func Synth(w, h int, seed uint64) *Image { return pixel.Synth(w, h, seed) }

// Workloads returns the Table II benchmark suite.
func Workloads() []Workload { return workloads.All() }

// WorkloadByName finds a Table II benchmark.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// DNNWorkloads returns the DNN/GEMM workload family: conv2d (3x3 and
// 1x1, multi-channel), a tiled GEMM, and a fused transformer
// feed-forward block, each paired with a bit-exact host golden
// reference. The family defaults to the multi-array stage-ahead
// schedule (Pipeline.MultiArraySchedule).
func DNNWorkloads() []DNNWorkload { return workloads.DNN() }

// DNNWorkloadByName finds a DNN/GEMM family workload.
func DNNWorkloadByName(name string) (DNNWorkload, error) { return workloads.DNNByName(name) }

// GPUBaseline models the V100 executing a pipeline on a WxH input.
func GPUBaseline(pipe *Pipeline, imgW, imgH int) (GPUProfile, error) {
	return gpu.Model(gpu.Default(), pipe, imgW, imgH)
}

// EnergyOf converts run statistics to the Fig. 9 energy breakdown.
// nBanks/nVaults describe the simulated machine portion.
func EnergyOf(stats *Stats, nBanks, nVaults int) EnergyBreakdown {
	return energy.DefaultModel().Compute(stats, nBanks, nVaults, 1.0)
}

// NewExperiments returns the harness that regenerates every paper
// figure and table. sizeDiv > 1 shrinks images for quick passes.
func NewExperiments(sizeDiv int) *exp.Context {
	c := exp.NewContext()
	c.SizeDiv = sizeDiv
	return c
}

// ExperimentNames lists the regenerable experiments.
func ExperimentNames() []string { return exp.ExperimentNames() }

// ReadPGM reads one grayscale plane from binary PGM.
func ReadPGM(r io.Reader) (*Image, error) { return pixel.ReadPGM(r) }

// WritePGM writes one grayscale plane as binary PGM.
func WritePGM(w io.Writer, im *Image) error { return pixel.WritePGM(w, im) }

// ReadPPM reads an RGB image as three planes from binary PPM.
func ReadPPM(r io.Reader) (rp, gp, bp *Image, err error) { return pixel.ReadPPM(r) }

// WritePPM writes three planes as one binary PPM RGB image.
func WritePPM(w io.Writer, rp, gp, bp *Image) error { return pixel.WritePPM(w, rp, gp, bp) }

// Assemble parses SIMB assembly text.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

// Disassemble renders a program as canonical SIMB assembly.
func Disassemble(p *Program) string { return isa.Disassemble(p) }
