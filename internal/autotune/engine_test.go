package autotune

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ipim/internal/dram"
	"ipim/internal/halide"
	"ipim/internal/sim"
)

// tuneBlur builds the schedule-free 3x3 separable blur the tests tune.
func tuneBlur() *halide.Pipeline {
	blurx := halide.NewFunc("tx").Define(
		halide.Mul(halide.Add(halide.Add(halide.In(-1, 0), halide.In(0, 0)), halide.In(1, 0)),
			halide.K(1.0/3)))
	out := halide.NewFunc("ty").Define(
		halide.Mul(halide.Add(halide.Add(blurx.At(0, -1), blurx.At(0, 0)), blurx.At(0, 1)),
			halide.K(1.0/3)))
	return halide.NewPipeline("tuneblur", out)
}

func tinyProblem() Problem {
	return PipelineProblem(sim.TestTiny(), tuneBlur, 32, 16)
}

// listStrategy proposes fixed batches; for driving the engine over an
// exact candidate list in tests.
type listStrategy struct {
	batches [][]Candidate
	i       int
}

func (l *listStrategy) Name() string { return "list" }
func (l *listStrategy) Next([]Result) []Candidate {
	if l.i >= len(l.batches) {
		return nil
	}
	b := l.batches[l.i]
	l.i++
	return b
}

func TestGridSearchRanksCandidates(t *testing.T) {
	p := tinyProblem()
	eng := &Engine{Workers: 2}
	report, err := eng.Search(context.Background(), p, NewGrid(DefaultSpace()))
	if err != nil {
		t.Fatal(err)
	}
	if report.Evaluated != DefaultSpace().Size() {
		t.Fatalf("evaluated %d candidates, want %d", report.Evaluated, DefaultSpace().Size())
	}
	best := report.Best()
	if best.Err != nil || best.Cycles == 0 {
		t.Fatalf("best candidate invalid: %+v", best)
	}
	for _, r := range report.Results[1:] {
		if r.Err == nil && r.Cycles < best.Cycles {
			t.Fatalf("ranking broken: %v (%d) beats best (%d)", r.Candidate, r.Cycles, best.Cycles)
		}
	}
	// The enlarged space must measure real differences.
	distinct := map[int64]bool{}
	for _, r := range report.Results {
		if r.Err == nil {
			distinct[r.Cycles] = true
		}
	}
	if len(distinct) < 2 {
		t.Fatal("all candidates identical: tuner measures nothing")
	}
	// The baseline was evaluated and the winner beats or matches it.
	if report.Default.Err != nil || report.Default.Cycles == 0 {
		t.Fatalf("default baseline invalid: %+v", report.Default)
	}
	if imp := report.Improvement(); imp < 1 {
		t.Fatalf("improvement %.3f < 1: grid missed the default point", imp)
	}
}

// TestSearchWorkerCountDeterminism is the PR acceptance differential:
// for a fixed seed and strategy, the full ranking — candidates, cycle
// counts, and order — is identical at 1 worker and at N workers.
func TestSearchWorkerCountDeterminism(t *testing.T) {
	for _, name := range StrategyNames() {
		t.Run(name, func(t *testing.T) {
			p := tinyProblem()
			p.Seed = 0xD5
			var baseline *Report
			for _, workers := range []int{1, 4} {
				strat, err := NewStrategy(name, DefaultSpace(), p.Seed)
				if err != nil {
					t.Fatal(err)
				}
				eng := &Engine{Workers: workers}
				report, err := eng.Search(context.Background(), p, strat)
				if err != nil {
					t.Fatal(err)
				}
				if baseline == nil {
					baseline = report
					continue
				}
				if report.Evaluated != baseline.Evaluated {
					t.Fatalf("workers=%d evaluated %d candidates, workers=1 evaluated %d",
						workers, report.Evaluated, baseline.Evaluated)
				}
				for i := range report.Results {
					got, want := report.Results[i], baseline.Results[i]
					if got.Candidate != want.Candidate || got.Cycles != want.Cycles ||
						(got.Err == nil) != (want.Err == nil) {
						t.Fatalf("rank %d differs at workers=%d: got %v (%d cycles, err=%v), want %v (%d cycles, err=%v)",
							i, workers, got.Candidate, got.Cycles, got.Err,
							want.Candidate, want.Cycles, want.Err)
					}
				}
				if report.Default != baseline.Default {
					t.Fatalf("baseline differs: %+v vs %+v", report.Default, baseline.Default)
				}
			}
		})
	}
}

// TestHillClimbAgreesWithGrid pins the hill-climb's quality on the
// small space: it must find the exhaustive winner while evaluating
// fewer candidates.
func TestHillClimbAgreesWithGrid(t *testing.T) {
	p := tinyProblem()
	eng := &Engine{Workers: 2}
	grid, err := eng.Search(context.Background(), p, NewGrid(DefaultSpace()))
	if err != nil {
		t.Fatal(err)
	}
	hill, err := eng.Search(context.Background(), p, NewHillClimb(DefaultSpace(), DefaultProbeSeed))
	if err != nil {
		t.Fatal(err)
	}
	if hill.Best().Cycles != grid.Best().Cycles {
		t.Fatalf("hill best %v (%d cycles) != grid best %v (%d cycles)",
			hill.Best().Candidate, hill.Best().Cycles,
			grid.Best().Candidate, grid.Best().Cycles)
	}
	if hill.Evaluated >= grid.Evaluated {
		t.Fatalf("hill evaluated %d of %d grid points: no pruning", hill.Evaluated, grid.Evaluated)
	}
}

func TestSearchReportsInfeasible(t *testing.T) {
	p := tinyProblem()
	// 32x32 tiles do not divide across the tiny machine's PEs.
	strat := &listStrategy{batches: [][]Candidate{{
		{TileW: 32, TileH: 32},
		{TileW: 8, TileH: 8},
	}}}
	eng := &Engine{}
	report, err := eng.Search(context.Background(), p, strat)
	if err != nil {
		t.Fatal(err)
	}
	if report.Results[0].Err != nil {
		t.Fatal("feasible candidate not ranked first")
	}
	if last := report.Results[len(report.Results)-1]; last.Err == nil {
		t.Fatal("infeasible candidate not reported")
	}
}

// TestSearchRejectsDivergentCandidate: a candidate whose pipeline
// computes something other than the reference is ranked infeasible,
// however few cycles it takes.
func TestSearchRejectsDivergentCandidate(t *testing.T) {
	p := tinyProblem()
	bad := Candidate{TileW: 16, TileH: 4}
	p.Build = func(c Candidate) *halide.Pipeline {
		if c == bad {
			out := halide.NewFunc("ty").Define(halide.Mul(halide.In(0, 0), halide.K(2)))
			return Apply(halide.NewPipeline("tuneblur", out), c)
		}
		return Apply(tuneBlur(), c)
	}
	strat := &listStrategy{batches: [][]Candidate{{bad, {TileW: 8, TileH: 8}}}}
	report, err := (&Engine{}).Search(context.Background(), p, strat)
	if err != nil {
		t.Fatal(err)
	}
	if first := report.Results[0]; first.Err != nil {
		t.Fatalf("faithful candidate infeasible: %v", first.Err)
	}
	last := report.Results[len(report.Results)-1]
	if last.Candidate != bad || last.Err == nil || !strings.Contains(last.Err.Error(), "diverged") {
		t.Fatalf("divergent candidate ranked as %+v, want infeasible with a \"diverged\" error", last)
	}
}

func TestSearchAllInfeasible(t *testing.T) {
	p := tinyProblem()
	strat := &listStrategy{batches: [][]Candidate{{{TileW: 32, TileH: 32}}}}
	if _, err := (&Engine{}).Search(context.Background(), p, strat); err == nil {
		t.Fatal("all-infeasible search succeeded")
	}
}

func TestSearchRespectsCycleBudget(t *testing.T) {
	p := tinyProblem()
	eng := &Engine{MaxCycles: 3}
	_, err := eng.Search(context.Background(), p, NewGrid(DefaultSpace()))
	if err == nil {
		t.Fatal("3-cycle budget produced a feasible schedule")
	}
	if !errors.Is(err, sim.ErrCycleBudget) {
		t.Fatalf("err = %v, want ErrCycleBudget", err)
	}
}

func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&Engine{}).Search(ctx, tinyProblem(), NewGrid(DefaultSpace()))
	if err == nil {
		t.Fatal("cancelled search succeeded")
	}
}

func TestSearchRejectsHistogram(t *testing.T) {
	p := tinyProblem()
	p.Default = func() *halide.Pipeline {
		pipe := tuneBlur()
		pipe.Histogram = true
		return pipe
	}
	if _, err := (&Engine{}).Search(context.Background(), p, NewGrid(DefaultSpace())); err == nil {
		t.Fatal("histogram pipeline accepted for tuning")
	}
}

func TestApplySetsSchedule(t *testing.T) {
	c := Candidate{TileW: 16, TileH: 4, LoadPGSM: true}
	pipe := Apply(tuneBlur(), c)
	if pipe.TileW != 16 || pipe.TileH != 4 {
		t.Fatalf("tile = %dx%d, want 16x4", pipe.TileW, pipe.TileH)
	}
	// And clearing staging works too (workload builders bake it in).
	pipe = Apply(tuneBlur(), Candidate{TileW: 8, TileH: 8, LoadPGSM: false})
	if pipe.TileW != 8 || pipe.TileH != 8 {
		t.Fatalf("tile = %dx%d, want 8x8", pipe.TileW, pipe.TileH)
	}
	if pipe.MultiArray {
		t.Fatal("baseline candidate left the multi-array schedule on")
	}
	pipe = Apply(tuneBlur(), Candidate{TileW: 8, TileH: 8, LoadPGSM: true, MultiArray: true})
	if !pipe.MultiArray {
		t.Fatal("multi-array candidate did not set the schedule")
	}
}

func TestSpaceGrid(t *testing.T) {
	s := DefaultSpace()
	grid := s.Grid()
	if len(grid) != s.Size() || len(grid) != 96 {
		t.Fatalf("grid has %d candidates, Size()=%d, want 96", len(grid), s.Size())
	}
	seen := map[Candidate]bool{}
	for _, c := range grid {
		if seen[c] {
			t.Fatalf("duplicate grid candidate %v", c)
		}
		seen[c] = true
	}
	fixed := s.FixPolicies(dram.ClosePage, dram.FCFS)
	if fixed.Size() != 24 {
		t.Fatalf("fixed-policy space has %d candidates, want 24", fixed.Size())
	}
	// A space predating the multi-array knob keeps its historical grid.
	legacy := Space{TileW: []int{8}, TileH: []int{4}, PGSM: []bool{false, true},
		Pages: s.Pages, Scheds: s.Scheds}
	if legacy.Size() != 8 || len(legacy.Grid()) != 8 {
		t.Fatalf("legacy space has %d candidates (grid %d), want 8", legacy.Size(), len(legacy.Grid()))
	}
	for _, c := range legacy.Grid() {
		if c.MultiArray {
			t.Fatalf("legacy space proposed multi-array candidate %v", c)
		}
	}
	for _, c := range fixed.Grid() {
		if c.Page != dram.ClosePage || c.Sched != dram.FCFS {
			t.Fatalf("FixPolicies leaked candidate %v", c)
		}
	}
}

func TestCandidateString(t *testing.T) {
	for _, tc := range []struct {
		c    Candidate
		want string
	}{
		{Candidate{TileW: 8, TileH: 4, LoadPGSM: true}, "tile 8x4 + load_pgsm"},
		{Candidate{TileW: 8, TileH: 16, LoadPGSM: true, MultiArray: true},
			"tile 8x16 + load_pgsm + multi_array"},
		{Candidate{TileW: 16, TileH: 8, Page: dram.ClosePage, Sched: dram.FCFS},
			"tile 16x8 + close-page + fcfs"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestNewStrategyRejectsUnknown(t *testing.T) {
	if _, err := NewStrategy("anneal", DefaultSpace(), 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, name := range StrategyNames() {
		if _, err := NewStrategy(name, DefaultSpace(), 1); err != nil {
			t.Fatalf("NewStrategy(%q): %v", name, err)
		}
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := (&Engine{}).Search(context.Background(), Problem{}, NewGrid(DefaultSpace())); err == nil {
		t.Fatal("builder-less problem accepted")
	}
	p := tinyProblem()
	p.W = 0
	if _, err := (&Engine{}).Search(context.Background(), p, NewGrid(DefaultSpace())); err == nil {
		t.Fatal("zero-geometry problem accepted")
	}
}

// BenchmarkGridSearch is the machine-reuse regression benchmark: the
// retired internal/tune built a fresh cube.New per candidate, so a
// regression back to that shape shows up here as a step increase in
// ns/op and allocations.
func BenchmarkGridSearch(b *testing.B) {
	p := tinyProblem()
	space := Space{
		TileW: []int{8}, TileH: []int{4, 8},
		PGSM:  []bool{false},
		Pages: []dram.PagePolicy{dram.OpenPage},
		Scheds: []dram.SchedPolicy{
			dram.FRFCFS,
		},
	}
	eng := &Engine{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(context.Background(), p, NewGrid(space)); err != nil {
			b.Fatal(err)
		}
	}
}

// ExampleEngine_Search shows the package's core loop.
func ExampleEngine_Search() {
	p := PipelineProblem(sim.TestTiny(), tuneBlur, 32, 16)
	eng := &Engine{Workers: 2}
	report, err := eng.Search(context.Background(), p, NewGrid(DefaultSpace()))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(report.Best().Err == nil, report.Evaluated)
	// Output: true 96
}
