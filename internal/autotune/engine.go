package autotune

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ipim/internal/compiler"
	"ipim/internal/cube"
	"ipim/internal/halide"
	"ipim/internal/pixel"
	"ipim/internal/sim"
)

// Engine evaluates candidate schedules on a pool of reused machines.
// The zero value is usable (one worker, no budget). An Engine may run
// many Searches sequentially; its machines are rebuilt per Search (the
// machine shape follows the Problem's config) but reused across every
// candidate within one, which is what makes a 48-point grid cost 48
// simulated runs instead of 48 machine constructions plus runs.
type Engine struct {
	// Workers is the number of parallel evaluation workers; each owns
	// one machine for the duration of a Search (<1 means 1). Results
	// are bit-identical at any setting.
	Workers int
	// MaxCycles caps each candidate's simulated run (RunOptions
	// semantics); a candidate that exhausts it is recorded infeasible.
	// 0 disables the budget.
	MaxCycles int64
}

// Search runs a strategy over a problem and returns the ranked report.
// The search is deterministic for a fixed problem seed and strategy at
// any Workers setting. ctx cancels it between and during candidate
// runs (the engine threads ctx into the simulator). An error is
// returned when the search produced no feasible candidate, when the
// baseline could not be evaluated, or when ctx expired.
func (e *Engine) Search(ctx context.Context, p Problem, strat Strategy) (*Report, error) {
	if p.Build == nil {
		return nil, fmt.Errorf("autotune: problem has no builder")
	}
	if p.W <= 0 || p.H <= 0 {
		return nil, fmt.Errorf("autotune: bad probe geometry %dx%d", p.W, p.H)
	}
	if err := p.Cfg.Validate(); err != nil {
		return nil, err
	}
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}

	seed := p.Seed
	if seed == 0 {
		seed = DefaultProbeSeed
	}
	img := pixel.Synth(p.W, p.H, seed)

	// The golden reference is schedule-independent: compute it once
	// from the baseline pipeline (or the first candidate's).
	refPipe := func() *halide.Pipeline {
		if p.Default != nil {
			return p.Default()
		}
		return p.Build(Candidate{TileW: 8, TileH: 8, Page: p.Cfg.Page, Sched: p.Cfg.Sched})
	}()
	if refPipe.Histogram {
		return nil, fmt.Errorf("autotune: histogram pipelines are not tunable (no image reference)")
	}
	ref, err := refPipe.Reference(img)
	if err != nil {
		return nil, fmt.Errorf("autotune: reference evaluation: %w", err)
	}

	// One reset machine per worker, reused for every candidate.
	machines := make([]*cube.Machine, workers)
	for i := range machines {
		m, err := cube.New(p.Cfg)
		if err != nil {
			return nil, fmt.Errorf("autotune: build worker machine %d: %w", i, err)
		}
		machines[i] = m
	}

	report := &Report{Strategy: strat.Name()}
	if p.Default != nil {
		base := Candidate{TileW: refPipe.TileW, TileH: refPipe.TileH,
			Page: p.Cfg.Page, Sched: p.Cfg.Sched}
		report.Default = e.eval(ctx, machines[0], p, p.Default(), base, img, ref)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if report.Default.Err != nil {
			return nil, fmt.Errorf("autotune: default schedule infeasible: %w", report.Default.Err)
		}
	}

	var all []Result
	for {
		batch := strat.Next(all)
		if len(batch) == 0 {
			break
		}
		results := make([]Result, len(batch))
		var next atomic.Int64
		nw := workers
		if nw > len(batch) {
			nw = len(batch)
		}
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(m *cube.Machine) {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					c := batch[i]
					results[i] = e.eval(ctx, m, p, p.Build(c), c, img, ref)
				}
			}(machines[w])
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		all = append(all, results...)
	}

	report.Evaluated = len(all)
	report.Results = rank(all)
	if len(report.Results) == 0 || report.Results[0].Err != nil {
		return report, fmt.Errorf("autotune: no feasible candidate")
	}
	return report, nil
}

// eval compiles one candidate pipeline and runs it once, timed, on a
// pooled machine, accepting its cycle count only if the output matches
// the golden reference. Cycle mode applies every data effect through
// the same executor as FunctionalMode, so the timed run's output is
// the one to check.
func (e *Engine) eval(ctx context.Context, m *cube.Machine, p Problem, pipe *halide.Pipeline, c Candidate, img, ref *pixel.Image) Result {
	r := Result{Candidate: c}
	cfg := p.Cfg
	cfg.Page, cfg.Sched = c.Page, c.Sched
	art, err := compiler.Compile(&cfg, pipe, p.W, p.H, p.Opts)
	if err != nil {
		r.Err = err
		return r
	}
	// Every run starts from a fresh machine, so the measurement is
	// independent of which candidates this worker evaluated before it —
	// a precondition for worker-count determinism.
	m.SetDRAMPolicy(c.Page, c.Sched)
	if err := compiler.LoadInput(m, art, img); err != nil {
		r.Err = err
		return r
	}
	stats, err := compiler.ExecuteContext(ctx, m, art, sim.RunOptions{MaxCycles: e.MaxCycles})
	if err != nil {
		r.Err = err
		return r
	}
	out, err := compiler.ReadOutput(m, art)
	if err != nil {
		r.Err = err
		return r
	}
	if pixel.MaxAbsDiff(out, ref) != 0 {
		r.Err = fmt.Errorf("autotune: candidate %s diverged from reference", c)
		return r
	}
	r.Cycles = stats.Cycles
	return r
}

// rank sorts results fastest-first with infeasible candidates last;
// ties keep evaluation order (sort stability), so the ranking is a
// pure function of the result list.
func rank(all []Result) []Result {
	ranked := append([]Result(nil), all...)
	sort.SliceStable(ranked, func(i, j int) bool {
		fi, fj := ranked[i].Feasible(), ranked[j].Feasible()
		if fi != fj {
			return fi
		}
		if !fi {
			return false
		}
		return ranked[i].Cycles < ranked[j].Cycles
	})
	return ranked
}
