package ipim

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (Sec. VII). Each benchmark regenerates its
// experiment through the internal/exp harness and reports the headline
// quantity the paper cites as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Figures that sweep many simulations
// (Fig. 10, Fig. 12) run at SizeDiv=4 (images shrunk 4x; identical
// shapes); `ipim-bench` regenerates everything at full size. See
// EXPERIMENTS.md for the paper-vs-measured record.

import (
	"testing"

	"ipim/internal/compiler"
	"ipim/internal/energy"
	"ipim/internal/exp"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// expBench runs one experiment per iteration and reports a metric.
func expBench(b *testing.B, name string, sizeDiv int, metric string, metricOf func(*exp.Table) float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		c := exp.NewContext()
		c.SizeDiv = sizeDiv
		tb, err := c.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(metricOf(tb), metric)
		}
	}
}

// --- Tables ---

// BenchmarkTable1ISA exercises the SIMB ISA (paper Table I): assembler,
// disassembler and binary codec round trip.
func BenchmarkTable1ISA(b *testing.B) {
	src := `
top:
seti_crf c0, =top
calc_arf iadd a4, a0, #64, sm=*
ld_rf d0, @a4, sm=*
comp fmac vv d1, d0, d0, vm=0xf, sm=*
st_rf d1, 0x100, sm=*
sync 0
`
	for i := 0; i < b.N; i++ {
		p, err := isa.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		data := isa.EncodeProgram(p)
		q, err := isa.DecodeProgram(data)
		if err != nil {
			b.Fatal(err)
		}
		_ = isa.Disassemble(q)
	}
}

// BenchmarkTable2Workloads compiles the full Table II suite.
func BenchmarkTable2Workloads(b *testing.B) {
	cfg := OneVaultConfig()
	for i := 0; i < b.N; i++ {
		var instrs int
		for _, wl := range Workloads() {
			w := wl.Build()
			art, err := Compile(&cfg, w.Pipe, wl.BenchW, wl.BenchH, Opt)
			if err != nil {
				b.Fatal(err)
			}
			instrs += len(art.Prog.Ins)
		}
		if i == 0 {
			b.ReportMetric(float64(instrs), "SIMB-instructions")
		}
	}
}

// BenchmarkTable3Machine builds the full Table III machine (8 cubes x
// 16 vaults x 8 PGs x 4 PEs).
func BenchmarkTable3Machine(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(cfg.TotalPEs()), "PEs")
		}
		_ = m
	}
}

// BenchmarkTable4Area regenerates the area evaluation (paper: 10.28 mm²,
// 10.71% overhead per DRAM die).
func BenchmarkTable4Area(b *testing.B) {
	expBench(b, "table4", 1, "overhead-pct", func(t *exp.Table) float64 {
		return t.Rows[len(t.Rows)-1].Values[2]
	})
}

// --- Figures ---

// BenchmarkFig1GPUProfile regenerates the GPU motivation profile
// (paper: 57.55% DRAM util vs 3.43% ALU util).
func BenchmarkFig1GPUProfile(b *testing.B) {
	expBench(b, "fig1", 1, "avg-dram-util-pct", func(t *exp.Table) float64 {
		return t.Mean(1)
	})
}

// BenchmarkFig6Speedup regenerates the headline comparison (paper:
// 11.02x average speedup over the V100).
func BenchmarkFig6Speedup(b *testing.B) {
	expBench(b, "fig6", 1, "avg-speedup", func(t *exp.Table) float64 {
		return t.Mean(2)
	})
}

// BenchmarkFig7Energy regenerates the energy comparison (paper: 79.49%
// average saving).
func BenchmarkFig7Energy(b *testing.B) {
	expBench(b, "fig7", 1, "avg-saving-pct", func(t *exp.Table) float64 {
		return t.Mean(2)
	})
}

// BenchmarkFig8PonB regenerates the near-bank vs process-on-base-die
// comparison (paper: 3.61x speedup).
func BenchmarkFig8PonB(b *testing.B) {
	expBench(b, "fig8", 4, "avg-speedup", func(t *exp.Table) float64 {
		return t.Mean(2)
	})
}

// BenchmarkFig9EnergyBreakdown regenerates the energy decomposition
// (paper: 89.17% of energy on the PIM dies).
func BenchmarkFig9EnergyBreakdown(b *testing.B) {
	expBench(b, "fig9", 1, "pim-die-pct", func(t *exp.Table) float64 {
		return t.Mean(6)
	})
}

// BenchmarkFig10RFSensitivity regenerates the DataRF sweep (paper:
// 46.8%/26.8%/9.5% drops for 16/32/64 entries vs 128).
func BenchmarkFig10RFSensitivity(b *testing.B) {
	expBench(b, "fig10a", 4, "rf16-slowdown", func(t *exp.Table) float64 {
		return t.Mean(0)
	})
}

// BenchmarkFig10PGSMSensitivity regenerates the scratchpad sweep
// (paper: 58.9%/39.0% drops for 2KB/4KB vs 8KB).
func BenchmarkFig10PGSMSensitivity(b *testing.B) {
	expBench(b, "fig10b", 4, "pgsm2k-slowdown", func(t *exp.Table) float64 {
		return t.Mean(0)
	})
}

// BenchmarkFig11InstMix regenerates the instruction breakdown (paper:
// index calculation 23.25% of dynamic instructions).
func BenchmarkFig11InstMix(b *testing.B) {
	expBench(b, "fig11", 1, "index-calc-pct", func(t *exp.Table) float64 {
		return t.Mean(1)
	})
}

// BenchmarkFig12Compiler regenerates the compiler ablation (paper:
// 3.19x for opt over baseline1).
func BenchmarkFig12Compiler(b *testing.B) {
	expBench(b, "fig12", 4, "opt-speedup", func(t *exp.Table) float64 {
		return t.Mean(3)
	})
}

// BenchmarkFig13IPC regenerates the IPC/utilization analysis (paper:
// average IPC 0.63).
func BenchmarkFig13IPC(b *testing.B) {
	expBench(b, "fig13", 1, "avg-ipc", func(t *exp.Table) float64 {
		return t.Mean(0)
	})
}

// BenchmarkThermal regenerates the thermal feasibility analysis
// (paper Sec. VII-B: 63 W/cube peak, 593 mW/mm²).
func BenchmarkThermal(b *testing.B) {
	expBench(b, "thermal", 4, "peak-W-per-cube", func(t *exp.Table) float64 {
		var m float64
		for _, r := range t.Rows {
			if r.Values[0] > m {
				m = r.Values[0]
			}
		}
		return m
	})
}

// BenchmarkDRAMPolicy regenerates the page/scheduling policy ablation
// (Sec. IV-E controller features; Table III defaults).
func BenchmarkDRAMPolicy(b *testing.B) {
	expBench(b, "dram", 4, "closepage-slowdown", func(t *exp.Table) float64 {
		return t.Mean(2)
	})
}

// BenchmarkScaling regenerates the multi-vault scaling validation
// behind the representative-vault extrapolation (DESIGN.md §2).
func BenchmarkScaling(b *testing.B) {
	expBench(b, "scaling", 4, "eff-4v", func(t *exp.Table) float64 {
		return t.Mean(4)
	})
}

// BenchmarkOffload regenerates the PCIe offload analysis (paper
// Sec. VI system integration).
func BenchmarkOffload(b *testing.B) {
	expBench(b, "offload", 4, "xfer-share-pct", func(t *exp.Table) float64 {
		return t.Mean(2)
	})
}

// BenchmarkExchangeAblation regenerates the halo-strategy comparison
// (overlapped recompute vs PGSM/VSM exchange; DESIGN.md §2).
func BenchmarkExchangeAblation(b *testing.B) {
	expBench(b, "exchange", 1, "chain8-speedup", func(t *exp.Table) float64 {
		return t.Rows[len(t.Rows)-1].Values[2]
	})
}

// --- Component micro-benchmarks ---

// BenchmarkSimulatorVault measures raw simulation throughput: simulated
// SIMB instructions per second for a streaming kernel on one vault.
func BenchmarkSimulatorVault(b *testing.B) {
	cfg := OneVaultConfig()
	wl, err := WorkloadByName("Brighten")
	if err != nil {
		b.Fatal(err)
	}
	img := Synth(wl.BenchW, wl.BenchH, 1)
	pipe := wl.Build().Pipe
	art, err := Compile(&cfg, pipe, img.W, img.H, Opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var issued int64
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := Run(m, art, img)
		if err != nil {
			b.Fatal(err)
		}
		issued += stats.Issued
	}
	b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkFullMachineRunSame measures wall-clock simulation time for
// the full 128-vault Table III machine running the same single-vault
// program on every vault, serial vs parallel (Machine.SetParallelism).
// The two runs produce bit-identical sim.Stats (pinned by
// determinism_test.go); this benchmark exists to quantify the speedup,
// which scales with physical cores — on a single-core host the two
// configurations time alike.
func BenchmarkFullMachineRunSame(b *testing.B) {
	one := OneVaultConfig()
	wl, err := WorkloadByName("Brighten")
	if err != nil {
		b.Fatal(err)
	}
	w := wl.Build()
	art, err := Compile(&one, w.Pipe, 2*wl.TestW, 2*wl.TestH, Opt)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, bc := range []struct {
		name string
		par  int // 0 = GOMAXPROCS
	}{{"Serial", 1}, {"Parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := NewMachine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m.SetParallelism(bc.par)
				stats, err := m.RunSame(art.Prog)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(stats.Cycles), "sim-cycles")
				}
			}
		})
	}
}

// BenchmarkSimCore measures raw simulator-core throughput — Execute
// only, no image I/O or machine construction — for three Table II
// workloads on the representative vault, reusing one machine across
// iterations the way the serving pool does. Shift is the stall-heavy
// case (pure data movement: every instruction is a bank access, so the
// run is dominated by DRAM-queue and data-hazard waits the event-driven
// fast-forward skips); Brighten adds compute; GaussianBlur adds halo
// traffic. BENCH_simcore.json records this benchmark's trajectory
// across PRs (see docs/BENCHMARKS.md).
func BenchmarkSimCore(b *testing.B) {
	for _, name := range []string{"Shift", "GaussianBlur", "Brighten"} {
		b.Run(name, func(b *testing.B) {
			cfg := OneVaultConfig()
			wl, err := WorkloadByName(name)
			if err != nil {
				b.Fatal(err)
			}
			img := Synth(wl.BenchW, wl.BenchH, 1)
			pipe := wl.Build().Pipe
			art, err := Compile(&cfg, pipe, img.W, img.H, Opt)
			if err != nil {
				b.Fatal(err)
			}
			m, err := NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := compiler.LoadInput(m, art, img); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var issued int64
			for i := 0; i < b.N; i++ {
				stats, err := compiler.Execute(m, art)
				if err != nil {
					b.Fatal(err)
				}
				issued += stats.Issued
				if i == 0 {
					b.ReportMetric(float64(stats.Cycles), "sim-cycles")
				}
			}
			b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim-instrs/s")
		})
	}
}

// BenchmarkSimCoreFunctional is BenchmarkSimCore with the machine in
// FunctionalMode: same three workloads, same machine reuse, but the
// per-cycle pipeline model is skipped entirely and instructions execute
// at issue order. The ratio of the two benchmarks' sim-instrs/s is the
// functional-mode speedup recorded in BENCH_funcmode.json (the pixel
// outputs are bit-identical by the funcmode_test.go harness, so the
// comparison is apples-to-apples work).
func BenchmarkSimCoreFunctional(b *testing.B) {
	for _, name := range []string{"Shift", "GaussianBlur", "Brighten"} {
		b.Run(name, func(b *testing.B) {
			cfg := OneVaultConfig()
			wl, err := WorkloadByName(name)
			if err != nil {
				b.Fatal(err)
			}
			img := Synth(wl.BenchW, wl.BenchH, 1)
			pipe := wl.Build().Pipe
			art, err := Compile(&cfg, pipe, img.W, img.H, Opt)
			if err != nil {
				b.Fatal(err)
			}
			m, err := NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			m.SetMode(FunctionalMode)
			if err := compiler.LoadInput(m, art, img); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var issued int64
			for i := 0; i < b.N; i++ {
				stats, err := compiler.Execute(m, art)
				if err != nil {
					b.Fatal(err)
				}
				issued += stats.Issued
			}
			b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "sim-instrs/s")
		})
	}
}

// BenchmarkCompile measures one compile on the single-vault machine
// with Opt: each multi-stage kernel the compile-churn benchmark
// workload rotates through, at its largest geometry (1024×64), and
// Histogram at 128×64, the compile behind serve-light's set-up.
func BenchmarkCompile(b *testing.B) {
	for _, k := range []struct {
		name string
		w, h int
	}{
		{"Interpolate", 1024, 64}, {"LocalLaplacian", 1024, 64},
		{"StencilChain", 1024, 64}, {"BilateralGrid", 1024, 64},
		{"Histogram", 128, 64},
	} {
		b.Run(k.name, func(b *testing.B) {
			cfg := OneVaultConfig()
			wl, err := WorkloadByName(k.name)
			if err != nil {
				b.Fatal(err)
			}
			var ins int
			for i := 0; i < b.N; i++ {
				art, err := Compile(&cfg, wl.Build().Pipe, k.w, k.h, Opt)
				if err != nil {
					b.Fatal(err)
				}
				ins = len(art.Prog.Ins)
			}
			b.ReportMetric(float64(ins), "instrs")
		})
	}
}

// BenchmarkEnergyModel measures the Table III energy accounting.
func BenchmarkEnergyModel(b *testing.B) {
	model := energy.DefaultModel()
	var s sim.Stats
	s.Cycles = 1 << 20
	s.DRAM.Reads = 1 << 18
	s.SIMDOps = 1 << 19
	for i := 0; i < b.N; i++ {
		br := model.Compute(&s, 32, 1, 1.0)
		if br.Total() <= 0 {
			b.Fatal("degenerate energy")
		}
	}
}
