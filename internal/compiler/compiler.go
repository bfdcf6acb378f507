package compiler

import (
	"context"
	"fmt"

	"ipim/internal/halide"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Machineish is the execution surface Execute needs (satisfied by
// *cube.Machine; an interface avoids an import cycle in tests).
type Machineish interface {
	RunSame(p *isa.Program) (sim.Stats, error)
	Run(programs map[[2]int]*isa.Program) (sim.Stats, error)
}

// ContextMachineish is the cancellable execution surface ExecuteContext
// needs (also satisfied by *cube.Machine).
type ContextMachineish interface {
	RunSameContext(ctx context.Context, p *isa.Program) (sim.Stats, error)
	RunContext(ctx context.Context, programs map[[2]int]*isa.Program) (sim.Stats, error)
}

type simStats = sim.Stats

// Artifact is a compiled pipeline: the executable program (identical
// for every vault — SPMD over the tile distribution) plus the plan the
// host loader uses to place data.
type Artifact struct {
	Plan *Plan
	Prog *isa.Program
	// LeaderProg, when non-nil, replaces Prog on vault (0,0): the
	// leader variant carries the cross-vault reduction phase of
	// multi-vault histogram pipelines (req-based, paper Sec. IV-D).
	LeaderProg *isa.Program
	Opts       Options
	Spills     int
}

// Compile maps a pipeline onto the machine configuration for a given
// input image size, applying the selected backend optimizations.
func Compile(cfg *sim.Config, pipe *halide.Pipeline, imgW, imgH int, opts Options) (*Artifact, error) {
	plan, err := NewPlan(cfg, pipe, imgW, imgH)
	if err != nil {
		return nil, err
	}
	mods, spills, err := allocatedModules(plan, opts)
	if err != nil {
		return nil, err
	}
	art := &Artifact{Plan: plan, Opts: opts, Spills: spills}
	for i, mod := range mods {
		Reorder(mod, cfg, opts)
		prog, err := mod.emit()
		if err != nil {
			return nil, err
		}
		if err := prog.Validate(cfg.DataRFEntries, cfg.AddrRFEntries, cfg.CtrlRFEntries); err != nil {
			return nil, fmt.Errorf("compiler: generated program invalid: %w", err)
		}
		if i == 0 {
			art.Prog = prog
		} else {
			art.LeaderProg = prog
		}
	}
	return art, nil
}

// allocatedModules runs every pass Compile runs before Reorder. It
// lowers the plan to the module every vault runs and, for histogram
// pipelines on more than one vault, the leader variant that replaces
// it on vault (0,0), then allocates registers in each. spills is the
// first module's spill count.
func allocatedModules(plan *Plan, opts Options) (mods []*module, spills int, err error) {
	var mod *module
	if plan.Pipe.Histogram {
		mod, err = lowerHistogram(plan)
	} else {
		mod, err = Lower(plan)
	}
	if err != nil {
		return nil, 0, err
	}
	if spills, err = Allocate(mod, plan, opts); err != nil {
		return nil, 0, err
	}
	mods = []*module{mod}
	if plan.Pipe.Histogram && plan.Cfg.TotalVaults() > 1 {
		lmod, err := lowerHistogramVariant(plan, true)
		if err != nil {
			return nil, 0, err
		}
		if _, err := Allocate(lmod, plan, opts); err != nil {
			return nil, 0, err
		}
		mods = append(mods, lmod)
	}
	return mods, spills, nil
}

// Execute runs a compiled artifact on the machine: the base program on
// every vault, with the leader variant (when present) on vault (0,0).
func Execute(m Machineish, art *Artifact) (simStats, error) {
	if art.LeaderProg == nil {
		return m.RunSame(art.Prog)
	}
	return m.Run(artPrograms(art))
}

// ExecuteContext is Execute with cooperative cancellation and budget
// enforcement (the semantics of cube.Machine.RunContext).
func ExecuteContext(ctx context.Context, m ContextMachineish, art *Artifact) (simStats, error) {
	if art.LeaderProg == nil {
		return m.RunSameContext(ctx, art.Prog)
	}
	return m.RunContext(ctx, artPrograms(art))
}

// artPrograms expands an artifact with a leader variant into the
// per-vault program map.
func artPrograms(art *Artifact) map[[2]int]*isa.Program {
	progs := map[[2]int]*isa.Program{}
	for c := 0; c < art.Plan.Cfg.Cubes; c++ {
		for v := 0; v < art.Plan.Cfg.VaultsPerCube; v++ {
			progs[[2]int{c, v}] = art.Prog
		}
	}
	progs[[2]int{0, 0}] = art.LeaderProg
	return progs
}

// StaticCounts returns the static instruction mix of the artifact
// (used by analysis tools; the dynamic Fig. 11 mix comes from sim
// stats).
func (a *Artifact) StaticCounts() [isa.NumCategories]int {
	return a.Prog.CountByCategory()
}
