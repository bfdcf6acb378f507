package exp

import (
	"context"
	"fmt"

	"ipim/internal/compiler"
	"ipim/internal/cube"
	"ipim/internal/pixel"
	"ipim/internal/sim"
	"ipim/internal/workloads"
)

// The DNN/GEMM family experiment: every workload under the baseline
// list schedule and the multi-array stage-ahead schedule, each output
// checked bit-for-bit against its host golden reference.

// dnnRun is one executed DNN workload configuration.
type dnnRun struct {
	stats sim.Stats
	imgW  int
	imgH  int
	// goldenDiff is the max abs deviation from the host golden (0 for a
	// correct run; pixel-exact is the family's contract).
	goldenDiff float64
}

// dnnSizeOf picks the probe size: the height is fixed by operator
// geometry, the width shrinks under SizeDiv but never below two tiles
// per PE, so the stage-ahead schedule stays engaged even in smoke runs.
func (c *Context) dnnSizeOf(wl workloads.DNNWorkload) (int, int) {
	w, h := wl.BenchW, wl.BenchH
	div := c.SizeDiv
	pipe := wl.Build().Pipe
	minW := 2 * pipe.TileW * c.BenchCfg.PEsPerVault()
	for div > 1 && w/2 >= minW {
		w /= 2
		div /= 2
	}
	return w, h
}

// runDNN executes one DNN workload with the multi-array schedule forced
// on or off (cached per schedule).
func (c *Context) runDNN(wl workloads.DNNWorkload, multiArray bool) (*dnnRun, error) {
	ck := fmt.Sprintf("dnn/%s/%v", wl.Name, multiArray)
	if r, ok := c.dnnCache[ck]; ok {
		return r, nil
	}
	cfg := c.BenchCfg
	pipe := wl.Build().Pipe.MultiArraySchedule(multiArray)
	imgW, imgH := c.dnnSizeOf(wl)
	img := pixel.Synth(imgW, imgH, 0xD2D2+uint64(len(wl.Name)))
	art, err := compiler.Compile(&cfg, pipe, imgW, imgH, compiler.Opt)
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
	out, err := compiler.ReadOutput(m, art)
	if err != nil {
		return nil, err
	}
	r := &dnnRun{stats: stats, imgW: imgW, imgH: imgH,
		goldenDiff: float64(pixel.MaxAbsDiff(out, wl.Host(img)))}
	if c.dnnCache == nil {
		c.dnnCache = map[string]*dnnRun{}
	}
	c.dnnCache[ck] = r
	return r, nil
}

// DNN regenerates the DNN/GEMM family table: baseline vs multi-array
// cycles, the schedule speedup, and the host-golden deviation (always
// 0; the column keeps the bit-exactness check visible in the output).
func (c *Context) DNN() (*Table, error) {
	tb := &Table{
		Name:    "dnn",
		Title:   "DNN/GEMM family: baseline vs multi-array stage-ahead schedule",
		Columns: []string{"base cycles", "ma cycles", "speedup", "golden diff"},
		Notes: []string{
			"multi-array: per-PE double-buffered PGSM staging overlapped with compute",
			"golden diff is max abs deviation from the host reference (must be 0)",
		},
	}
	for _, wl := range workloads.DNN() {
		base, err := c.runDNN(wl, false)
		if err != nil {
			return nil, err
		}
		ma, err := c.runDNN(wl, true)
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if ma.stats.Cycles > 0 {
			speedup = float64(base.stats.Cycles) / float64(ma.stats.Cycles)
		}
		tb.Rows = append(tb.Rows, Row{
			Label: fmt.Sprintf("%s %dx%d", wl.Name, base.imgW, base.imgH),
			Values: []float64{
				float64(base.stats.Cycles), float64(ma.stats.Cycles),
				speedup, base.goldenDiff + ma.goldenDiff,
			},
		})
	}
	return tb, nil
}
