package sim

// Run control: execution budgets and the typed errors the cancellation
// path produces. The vocabulary lives in sim so every layer — the vault
// step loop, the cube phase loop, and the public ipim API — shares one
// set of sentinel errors without import cycles.

import "errors"

// Mode selects how a run executes the loaded programs.
type Mode uint8

const (
	// CycleMode is the full timing simulation: every instruction goes
	// through hazard checks, DRAM scheduling, TSV serialization and the
	// NoC, producing complete sim.Stats. It is the zero value, so zero
	// RunOptions run cycle-accurate.
	CycleMode Mode = iota

	// FunctionalMode executes instructions functionally only: register,
	// scratchpad, bank and pixel outputs are bit-identical to CycleMode,
	// but no clocks advance and no timing state is touched. Stats carry
	// instruction counts (Issued, InstByCategory, Syncs) with Cycles = 0.
	// MaxCycles budgets are reinterpreted as an issued-instruction bound
	// (every instruction costs at least one cycle, so the bound is
	// conservative); MaxPhaseSteps and cancellation work unchanged.
	FunctionalMode
)

// String returns the mode's short name as used by CLI flags and the
// serve API ("cycle", "functional").
func (m Mode) String() string {
	if m == FunctionalMode {
		return "functional"
	}
	return "cycle"
}

// RunOptions bounds one machine run. The zero value means unlimited:
// no budget checks run and the execution loop is untouched, so a
// zero-budget RunContext is bit-identical to Run.
//
// Budget decisions are made against vault-local state only (each
// vault's own clock and issue counter), which makes the error point a
// pure function of the workload: the same budget on the same programs
// trips at the same instruction on every schedule, serial or parallel,
// at any worker count.
type RunOptions struct {
	// MaxCycles aborts the run once any vault's clock advances this
	// many cycles past the point the run started (0 = unlimited). The
	// whole machine is bounded: vaults only drift apart within one
	// barrier phase, so every vault stops within one phase of the
	// budget.
	MaxCycles int64

	// MaxPhaseSteps aborts the run once any vault issues this many
	// instructions inside a single barrier phase without reaching sync
	// or end-of-program (0 = unlimited). This is the guard against
	// never-syncing programs whose backward branches are cheap in
	// cycles but unbounded in instructions.
	MaxPhaseSteps int64

	// Mode selects how the run executes (CycleMode, the zero value, or
	// FunctionalMode; see sim.Mode).
	Mode Mode

	// CheckpointEvery asks the run loop to serialize the machine at the
	// first phase barrier after this many cycles (functional mode:
	// issued instructions) have elapsed since the run began or since the
	// previous checkpoint (0 = never). Barriers are the only points a
	// checkpoint can be taken: every queue is drained there, so the
	// snapshot needs no in-flight state. CheckpointEvery = 1 therefore
	// means "at every barrier".
	CheckpointEvery int64

	// CheckpointSink receives each serialized checkpoint. A nil sink
	// disables checkpointing regardless of CheckpointEvery. The sink is
	// called synchronously between phases; a non-nil error aborts the
	// run with that error (the machine is Reset, as for cancellation).
	// The byte slice is freshly allocated and owned by the sink.
	CheckpointSink func(data []byte) error
}

// Enabled reports whether any budget is set.
func (o RunOptions) Enabled() bool { return o.MaxCycles > 0 || o.MaxPhaseSteps > 0 }

// Errors produced by the run-control layer. Callers match with
// errors.Is; both are returned wrapped in context describing the vault
// and program point that tripped.
var (
	// ErrCycleBudget marks a run aborted by RunOptions.MaxCycles or
	// RunOptions.MaxPhaseSteps. The machine has been reset to a clean
	// reusable state when a Run* method returns it.
	ErrCycleBudget = errors.New("execution budget exceeded")

	// ErrCancelled marks a run aborted because its context was
	// cancelled or timed out. It wraps the context's cause, so
	// errors.Is(err, context.DeadlineExceeded) also works. The machine
	// has been reset to a clean reusable state when a Run* method
	// returns it.
	ErrCancelled = errors.New("run cancelled")
)
