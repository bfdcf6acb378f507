package exp

import (
	"fmt"
	"strings"

	"ipim/internal/compiler"
	"ipim/internal/energy"
	"ipim/internal/isa"
)

// Fig1 reproduces the GPU profiling motivation (paper Fig. 1): per
// benchmark, the achieved DRAM bandwidth, DRAM utilization, ALU
// utilization, and the index-calculation share of ALU work.
func (c *Context) Fig1() (*Table, error) {
	t := &Table{
		Name: "fig1", Title: "GPU profiling (V100 model): bandwidth-bound behavior",
		Columns: []string{"BW(GB/s)", "DRAMutil%", "ALUutil%", "index%"},
		Notes: []string{
			"paper: 57.55% avg DRAM util, 3.43% avg ALU util, 58.71% index share",
		},
	}
	for _, wl := range suite() {
		imgW, imgH := c.sizeOf(wl)
		p, err := c.gpuProfileSized(wl, imgW, imgH)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Label: wl.Name, Values: []float64{
			p.BandwidthGBs, p.DRAMUtil * 100, p.ALUUtil * 100, p.IndexFrac * 100,
		}})
	}
	return t, nil
}

func (c *Context) gpuProfileSized(wl wlType, imgW, imgH int) (gpuProfile, error) {
	return gpuModel(c.GPU, wl.Build().Pipe, imgW, imgH)
}

// Fig6 reproduces the throughput/speedup comparison (paper Fig. 6):
// iPIM (full-machine extrapolation) vs the GPU baseline.
func (c *Context) Fig6() (*Table, error) {
	t := &Table{
		Name: "fig6", Title: "iPIM speedup over the V100 GPU baseline",
		Columns: []string{"iPIM(Mpix/s)", "GPU(Mpix/s)", "speedup"},
		Notes: []string{
			"paper: 11.02x average; Brighten 21.09x, Histogram 43.78x, Blur/StencilChain ~4.3x",
		},
	}
	for _, wl := range suite() {
		r, err := c.run(wl, compiler.Opt, c.BenchCfg, "bench")
		if err != nil {
			return nil, err
		}
		g, err := c.gpuProfile(wl, r)
		if err != nil {
			return nil, err
		}
		ti := c.machineTimeSec(r)
		t.Rows = append(t.Rows, Row{Label: wl.Name, Values: []float64{
			r.pixels / ti / 1e6, r.pixels / g.TimeSec / 1e6, g.TimeSec / ti,
		}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average speedup: %.2fx", t.Mean(2)))
	return t, nil
}

// Fig7 reproduces the energy comparison (paper Fig. 7).
func (c *Context) Fig7() (*Table, error) {
	t := &Table{
		Name: "fig7", Title: "iPIM energy vs GPU (per frame)",
		Columns: []string{"iPIM(mJ)", "GPU(mJ)", "saving%"},
		Notes:   []string{"paper: 79.49% average energy saving"},
	}
	for _, wl := range suite() {
		r, err := c.run(wl, compiler.Opt, c.BenchCfg, "bench")
		if err != nil {
			return nil, err
		}
		g, err := c.gpuProfile(wl, r)
		if err != nil {
			return nil, err
		}
		ei := c.ipimEnergy(r).Total()
		t.Rows = append(t.Rows, Row{Label: wl.Name, Values: []float64{
			ei * 1e3, g.EnergyJ * 1e3, (1 - ei/g.EnergyJ) * 100,
		}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average saving: %.1f%%", t.Mean(2)))
	return t, nil
}

// Fig8 reproduces the near-bank vs process-on-base-die comparison
// (paper Fig. 8): the PonB strawman serializes all bank traffic through
// the vault TSVs.
func (c *Context) Fig8() (*Table, error) {
	t := &Table{
		Name: "fig8", Title: "near-bank iPIM vs process-on-base-die (PonB)",
		Columns: []string{"iPIM(Mcyc)", "PonB(Mcyc)", "speedup", "energySave%"},
		Notes:   []string{"paper: 3.61x average speedup, 56.71% energy saving over PonB"},
	}
	ponbCfg := c.BenchCfg
	ponbCfg.PonB = true
	for _, wl := range suite() {
		r, err := c.run(wl, compiler.Opt, c.BenchCfg, "bench")
		if err != nil {
			return nil, err
		}
		rp, err := c.run(wl, compiler.Opt, ponbCfg, "ponb")
		if err != nil {
			return nil, err
		}
		ei := c.ipimEnergy(r)
		ep := c.ponbEnergy(rp)
		t.Rows = append(t.Rows, Row{Label: wl.Name, Values: []float64{
			float64(r.stats.Cycles) / 1e6, float64(rp.stats.Cycles) / 1e6,
			float64(rp.stats.Cycles) / float64(r.stats.Cycles),
			(1 - ei.Total()/ep.Total()) * 100,
		}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average speedup: %.2fx", t.Mean(2)))
	return t, nil
}

// ponbEnergy adds the TSV crossing energy PonB pays on every bank beat.
func (c *Context) ponbEnergy(r *runResult) energy.Breakdown {
	return c.Energy.Compute(&r.stats, c.BenchCfg.TotalPEs(), c.BenchCfg.TotalVaults(), 1.0)
}

// Fig9 reproduces the energy breakdown (paper Fig. 9): DRAM, SIMD unit,
// AddrRF, DataRF, PGSM and Others shares per workload.
func (c *Context) Fig9() (*Table, error) {
	t := &Table{
		Name: "fig9", Title: "iPIM energy breakdown (%)",
		Columns: []string{"DRAM", "SIMD", "AddrRF", "DataRF", "PGSM", "Others", "PIMdie%"},
		Notes:   []string{"paper: 89.17% of energy on the PIM dies"},
	}
	for _, wl := range suite() {
		r, err := c.run(wl, compiler.Opt, c.BenchCfg, "bench")
		if err != nil {
			return nil, err
		}
		b := c.ipimEnergy(r)
		tot := b.Total()
		t.Rows = append(t.Rows, Row{Label: wl.Name, Values: []float64{
			b.DRAM / tot * 100, b.SIMDUnit / tot * 100, b.AddrRF / tot * 100,
			b.DataRF / tot * 100, b.PGSM / tot * 100, b.Others / tot * 100,
			b.PIMDieFraction() * 100,
		}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average PIM-die share: %.1f%%", t.Mean(6)))
	return t, nil
}

// Fig10RF reproduces the register-file sensitivity (paper Fig. 10a):
// execution time normalized to the 128-entry DataRF.
func (c *Context) Fig10RF() (*Table, error) {
	t := &Table{
		Name: "fig10a", Title: "DataRF size sensitivity (time normalized to RF=128)",
		Columns: []string{"RF16", "RF32", "RF64", "RF128"},
		Notes:   []string{"paper: 46.8% / 26.8% / 9.5% drops for 16/32/64 vs 128"},
	}
	sizes := []int{16, 32, 64, 128}
	for _, wl := range sensitivitySuite() {
		var cycles []float64
		for _, sz := range sizes {
			cfg := c.BenchCfg
			cfg.DataRFEntries = sz
			r, err := c.run(wl, compiler.Opt, cfg, fmt.Sprintf("rf%d", sz))
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, float64(r.stats.Cycles))
		}
		base := cycles[len(cycles)-1]
		row := Row{Label: wl.Name}
		for _, cyc := range cycles {
			row.Values = append(row.Values, cyc/base)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig10PGSM reproduces the scratchpad sensitivity (paper Fig. 10b).
func (c *Context) Fig10PGSM() (*Table, error) {
	t := &Table{
		Name: "fig10b", Title: "PGSM size sensitivity (time normalized to PGSM=8KB)",
		Columns: []string{"2KB", "4KB", "8KB"},
		Notes:   []string{"paper: 58.9% / 39.0% drops for 2KB/4KB vs 8KB"},
	}
	sizes := []int{2 << 10, 4 << 10, 8 << 10}
	for _, wl := range sensitivitySuite() {
		var cycles []float64
		for _, sz := range sizes {
			cfg := c.BenchCfg
			cfg.PGSMBytes = sz
			r, err := c.run(wl, compiler.Opt, cfg, fmt.Sprintf("pgsm%d", sz))
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, float64(r.stats.Cycles))
		}
		base := cycles[len(cycles)-1]
		row := Row{Label: wl.Name}
		for _, cyc := range cycles {
			row.Values = append(row.Values, cyc/base)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig11 reproduces the dynamic instruction breakdown (paper Fig. 11).
func (c *Context) Fig11() (*Table, error) {
	t := &Table{
		Name: "fig11", Title: "dynamic instruction breakdown (%)",
		Columns: []string{"comp", "index", "intra-vault", "inter-vault", "control", "sync"},
		Notes: []string{
			"paper: index calculation 23.25% average; inter-vault 1.44%",
		},
	}
	for _, wl := range suite() {
		r, err := c.run(wl, compiler.Opt, c.BenchCfg, "bench")
		if err != nil {
			return nil, err
		}
		row := Row{Label: wl.Name}
		for cat := isa.Category(0); cat < isa.NumCategories; cat++ {
			row.Values = append(row.Values, r.stats.CategoryFraction(cat)*100)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average index share: %.1f%%", t.Mean(1)))
	return t, nil
}

// Fig12 reproduces the compiler-optimization ablation (paper Fig. 12):
// speedup of each configuration over the naive baseline1.
func (c *Context) Fig12() (*Table, error) {
	t := &Table{
		Name: "fig12", Title: "compiler optimization speedup over baseline1",
		Columns: []string{"baseline2", "baseline3", "baseline4", "opt"},
		Notes: []string{
			"paper: opt 3.19x over baseline1; regalloc 2.59x, reorder 2.74x, memorder 1.30x contributions",
		},
	}
	configs := []compiler.Options{compiler.Baseline2, compiler.Baseline3, compiler.Baseline4, compiler.Opt}
	for _, wl := range suite() {
		base, err := c.run(wl, compiler.Baseline1, c.BenchCfg, "bench")
		if err != nil {
			return nil, err
		}
		row := Row{Label: wl.Name}
		for _, o := range configs {
			r, err := c.run(wl, o, c.BenchCfg, "bench")
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, float64(base.stats.Cycles)/float64(r.stats.Cycles))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average opt speedup: %.2fx", t.Mean(3)))
	return t, nil
}

// Fig13 reproduces the IPC and component-utilization analysis (paper
// Fig. 13).
func (c *Context) Fig13() (*Table, error) {
	t := &Table{
		Name: "fig13", Title: "control-core IPC and component utilization (%)",
		Columns: []string{"IPC", "simd%", "intalu%", "datarf%", "addrrf%", "dram%"},
		Notes:   []string{"paper: average IPC 0.63; >40% AddrRF utilization on index-heavy kernels"},
	}
	for _, wl := range suite() {
		r, err := c.run(wl, compiler.Opt, c.BenchCfg, "bench")
		if err != nil {
			return nil, err
		}
		u := r.stats.Utilization(c.BenchCfg.PEsPerVault())
		t.Rows = append(t.Rows, Row{Label: wl.Name, Values: []float64{
			r.stats.IPC(), u["simd"] * 100, u["intalu"] * 100,
			u["datarf"] * 100, u["addrrf"] * 100, u["dram"] * 100,
		}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average IPC: %.2f", t.Mean(0)))
	return t, nil
}

// Table4 reproduces the area evaluation (paper Table IV).
func (c *Context) Table4() (*Table, error) {
	t := &Table{
		Name: "table4", Title: "area of iPIM components per DRAM die (mm², 2x DRAM-process overhead)",
		Columns: []string{"count", "area(mm2)", "overhead%"},
	}
	cfg := c.FullCfg
	items := energy.AreaReport(&cfg)
	for _, it := range items {
		t.Rows = append(t.Rows, Row{Label: it.Name, Values: []float64{
			float64(it.Number), it.AreaMM2, it.Overhead * 100,
		}})
	}
	total, overhead := energy.TotalArea(items)
	t.Rows = append(t.Rows, Row{Label: "Total", Values: []float64{0, total, overhead * 100}})
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: 10.28 mm² total, 10.71%% overhead"),
		fmt.Sprintf("naive per-bank control cores: %.1f%% overhead (paper: 122.36%%)",
			energy.NaivePerBankOverhead(&cfg)*100),
		fmt.Sprintf("control core %.2f mm² fits the %.1f mm² base-die vault budget: %v",
			energy.AreaControlCore, energy.BaseDieVaultBudget, energy.CoreFitsBaseDie()))
	return t, nil
}

// sensitivitySuite is the subset used for the Fig. 10 sweeps (a mix of
// bandwidth-, compute- and index-bound kernels; the full suite would
// multiply simulation time without changing the trend). The blur runs
// at a 16x16 tile so its staged working set (~1.2 KB per PE) actually
// exercises the smaller PGSM partitions, matching the paper's
// large-working-set setting (8K frames).
func sensitivitySuite() []wlType {
	names := []string{"Brighten", "GaussianBlur", "StencilChain"}
	var out []wlType
	for _, n := range names {
		w, err := wlByName(n)
		if err != nil {
			panic(err)
		}
		if n == "GaussianBlur" {
			// 16x8 tiles: the staged working set (~800 B/PE) fits the
			// 8 KB PGSM's 2 KB partitions and the 4 KB config's 1 KB
			// partitions but not the 2 KB config's 512 B — giving the
			// graded sensitivity the paper sees on 8K frames.
			inner := w.Build
			w.Name = "GaussianBlur16"
			w.Build = func() *wl1Type {
				b := inner()
				b.Pipe.IPIMTile(16, 8)
				return b
			}
		}
		out = append(out, w)
	}
	return out
}

// All runs every experiment in paper order.
func (c *Context) All() ([]*Table, error) {
	type gen struct {
		name string
		fn   func() (*Table, error)
	}
	gens := []gen{
		{"fig1", c.Fig1}, {"table4", c.Table4}, {"fig6", c.Fig6}, {"fig7", c.Fig7},
		{"fig8", c.Fig8}, {"fig9", c.Fig9}, {"fig10a", c.Fig10RF}, {"fig10b", c.Fig10PGSM},
		{"fig11", c.Fig11}, {"fig12", c.Fig12}, {"fig13", c.Fig13},
	}
	var out []*Table
	for _, g := range gens {
		tb, err := g.fn()
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", g.name, err)
		}
		out = append(out, tb)
	}
	return out, nil
}

// ByName runs one experiment.
func (c *Context) ByName(name string) (*Table, error) {
	switch name {
	case "fig1":
		return c.Fig1()
	case "table4":
		return c.Table4()
	case "fig6":
		return c.Fig6()
	case "fig7":
		return c.Fig7()
	case "fig8":
		return c.Fig8()
	case "fig9":
		return c.Fig9()
	case "fig10a":
		return c.Fig10RF()
	case "fig10b":
		return c.Fig10PGSM()
	case "fig11":
		return c.Fig11()
	case "fig12":
		return c.Fig12()
	case "fig13":
		return c.Fig13()
	case "stalls":
		return c.Stalls()
	case "thermal":
		return c.Thermal()
	case "dram":
		return c.DRAMPolicy()
	case "scaling":
		return c.Scaling()
	case "offload":
		return c.Offload()
	case "exchange":
		return c.Exchange()
	case "simspeed":
		return c.Simspeed()
	case "faults":
		return c.FaultSweep()
	case "dnn":
		return c.DNN()
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (valid: %s)",
		name, strings.Join(ExperimentNames(), ", "))
}

// ExperimentNames lists the available experiments — every name ByName
// accepts (TestByNameAndFormat dispatches each one).
func ExperimentNames() []string {
	return []string{"fig1", "table4", "fig6", "fig7", "fig8", "fig9",
		"fig10a", "fig10b", "fig11", "fig12", "fig13", "stalls", "thermal",
		"dram", "scaling", "offload", "exchange", "simspeed",
		"faults", "dnn"}
}
