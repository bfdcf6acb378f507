// Package exp regenerates every table and figure of the paper's
// evaluation (Sec. VII). Each experiment returns a Table whose rows
// mirror the series the paper plots; EXPERIMENTS.md records the
// paper-vs-measured comparison. The iPIM side simulates one
// representative vault (32 PEs) and extrapolates to the full machine by
// vault count — exact under the SIMB lock-step, tile-interleaved
// execution model (DESIGN.md §2).
package exp

import (
	"context"
	"fmt"
	"strings"

	"ipim/internal/compiler"
	"ipim/internal/cube"
	"ipim/internal/energy"
	"ipim/internal/fault"
	"ipim/internal/gpu"
	"ipim/internal/pixel"
	"ipim/internal/sim"
	"ipim/internal/workloads"
)

// Table is one regenerated experiment.
type Table struct {
	Name    string // experiment id, e.g. "fig6"
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one table row: a label and one value per column.
type Row struct {
	Label  string
	Values []float64
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.Name, t.Title)
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-24s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%16.4g", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Mean returns the geometric-free arithmetic mean of a column.
func (t *Table) Mean(col int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	var s float64
	for _, r := range t.Rows {
		s += r.Values[col]
	}
	return s / float64(len(t.Rows))
}

// runResult caches one simulated workload execution.
type runResult struct {
	stats  sim.Stats
	art    *compiler.Artifact
	pixels float64
	imgW   int
	imgH   int
}

// Context carries the experiment configuration and caches runs.
type Context struct {
	// BenchCfg is the simulated machine (default: one full vault).
	BenchCfg sim.Config
	// FullCfg is the machine the results extrapolate to (Table III).
	FullCfg sim.Config
	GPU     gpu.Config
	Energy  energy.Model

	// SizeDiv divides the workloads' bench image sizes (for faster
	// smoke runs; 1 = full bench sizes). Sizes are clamped to the
	// minimum the tile distribution supports.
	SizeDiv int

	// Faults attaches a fault-injection plan to every simulated machine
	// (nil: faults disabled). The faults sweep manages its own plans and
	// ignores this.
	Faults *fault.Plan

	// MaxCycles is a hard cycle budget passed to every simulated run
	// (0 = unlimited): runaway experiments fail with
	// sim.ErrCycleBudget instead of hanging the suite.
	MaxCycles int64

	cache    map[string]*runResult
	dnnCache map[string]*dnnRun
}

// NewContext returns the default experiment context.
func NewContext() *Context {
	return &Context{
		BenchCfg: sim.OneVault(),
		FullCfg:  sim.Default(),
		GPU:      gpu.Default(),
		Energy:   energy.DefaultModel(),
		SizeDiv:  1,
		cache:    map[string]*runResult{},
		dnnCache: map[string]*dnnRun{},
	}
}

// sizeOf picks the image size for a workload under SizeDiv, respecting
// the tile-distribution minimum (TilesX divisible by the PE count).
func (c *Context) sizeOf(wl workloads.Workload) (int, int) {
	w, h := wl.BenchW, wl.BenchH
	div := c.SizeDiv
	if div <= 0 {
		div = 1
	}
	pipe := wl.Build().Pipe
	minW := pipe.TileW * c.BenchCfg.PEsPerVault() * pipe.OutDen / pipe.OutNum
	minH := pipe.TileH * pipe.OutDen / pipe.OutNum
	for div > 1 && (w/2 >= minW || h/2 >= minH) {
		if h/2 >= minH {
			h /= 2
		} else {
			w /= 2
		}
		div /= 2
	}
	return w, h
}

// run executes a workload with the given compiler options on the bench
// machine (cached).
func (c *Context) run(wl workloads.Workload, opts compiler.Options, cfg sim.Config, key string) (*runResult, error) {
	ck := fmt.Sprintf("%s/%s/%s", wl.Name, opts.Name(), key)
	if r, ok := c.cache[ck]; ok {
		return r, nil
	}
	w := wl.Build()
	imgW, imgH := c.sizeOf(wl)
	img := pixel.Synth(imgW, imgH, 0xD1C8+uint64(len(wl.Name)))
	art, err := compiler.Compile(&cfg, w.Pipe, imgW, imgH, opts)
	if err != nil {
		return nil, fmt.Errorf("exp: compile %s: %w", wl.Name, err)
	}
	m, err := cube.New(cfg)
	if err != nil {
		return nil, err
	}
	m.SetFaultPlan(c.Faults)
	if err := compiler.LoadInput(m, art, img); err != nil {
		return nil, err
	}
	stats, err := compiler.ExecuteContext(context.Background(), m, art,
		sim.RunOptions{MaxCycles: c.MaxCycles})
	if err != nil {
		return nil, fmt.Errorf("exp: run %s: %w", wl.Name, err)
	}
	r := &runResult{stats: stats, art: art,
		pixels: float64(imgW) * float64(imgH), imgW: imgW, imgH: imgH}
	c.cache[ck] = r
	return r, nil
}

// machineTimeSec extrapolates a bench-vault run to the full machine.
func (c *Context) machineTimeSec(r *runResult) float64 {
	scale := float64(c.FullCfg.TotalVaults()) / float64(c.BenchCfg.TotalVaults())
	return float64(r.stats.Cycles) * 1e-9 / scale
}

// ipimEnergy computes the run's energy (invariant under the vault
// extrapolation: dynamic energy is per-work, and standby power and time
// scale inversely).
func (c *Context) ipimEnergy(r *runResult) energy.Breakdown {
	return c.Energy.Compute(&r.stats, c.BenchCfg.TotalPEs(), c.BenchCfg.TotalVaults(), 1.0)
}

// gpuProfile models the GPU on the same image.
func (c *Context) gpuProfile(wl workloads.Workload, r *runResult) (gpu.Profile, error) {
	return gpu.Model(c.GPU, wl.Build().Pipe, r.imgW, r.imgH)
}

// suite returns the Table II workloads.
func suite() []workloads.Workload { return workloads.All() }

// Short aliases used by the figure generators.
type (
	wlType  = workloads.Workload
	wl1Type = workloads.Workload1
)

var (
	wlByName = workloads.ByName
	gpuModel = gpu.Model
)

type gpuProfile = gpu.Profile
