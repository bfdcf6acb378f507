package exp

import (
	"math"
	"strings"
	"testing"

	"ipim/internal/sim"
)

// quickContext shrinks images as far as the tile distribution allows so
// the full experiment matrix stays fast in unit tests.
func quickContext() *Context {
	c := NewContext()
	c.SizeDiv = 16
	return c
}

func TestFig1Shape(t *testing.T) {
	tb, err := quickContext().Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("fig1 has %d rows, want 10", len(tb.Rows))
	}
	// Bandwidth-bound average DRAM utilization near the paper's 57.55%,
	// with Histogram the pathological outlier.
	var hist, others float64
	n := 0.0
	for _, r := range tb.Rows {
		if r.Label == "Histogram" {
			hist = r.Values[1]
			continue
		}
		others += r.Values[1]
		n++
	}
	if avg := others / n; avg < 40 || avg > 60 {
		t.Errorf("avg DRAM util %v%%, want near 57.55%%", avg)
	}
	if hist > 20 {
		t.Errorf("Histogram DRAM util %v%%, want pathological (<20%%)", hist)
	}
}

func TestFig6SpeedupShape(t *testing.T) {
	c := quickContext()
	tb, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, r := range tb.Rows {
			if r.Label == name {
				return r.Values[2]
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	// Paper shape: every workload wins; Brighten and Histogram are the
	// big winners; StencilChain is the weakest.
	for _, r := range tb.Rows {
		if r.Values[2] <= 1 {
			t.Errorf("%s: speedup %v <= 1", r.Label, r.Values[2])
		}
	}
	if get("Histogram") < 3*get("GaussianBlur") {
		t.Errorf("Histogram (%v) should far exceed blur (%v)", get("Histogram"), get("GaussianBlur"))
	}
	if get("Brighten") < get("GaussianBlur") {
		t.Errorf("Brighten (%v) should exceed blur (%v)", get("Brighten"), get("GaussianBlur"))
	}
	if get("StencilChain") > get("Brighten") {
		t.Errorf("StencilChain (%v) should be among the weakest", get("StencilChain"))
	}
	if avg := tb.Mean(2); avg < 3 {
		t.Errorf("average speedup %v too low for the paper's 11.02x shape", avg)
	}
}

func TestFig7EnergySavings(t *testing.T) {
	tb, err := quickContext().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		// At the shrunken quick-test scale, fixed per-stage overheads
		// (syncs, prologues, halo exchange) weigh heaviest on the
		// 32-stage chain; allow it to dip slightly below break-even
		// here. Full bench sizes (EXPERIMENTS.md) are the real check.
		if r.Values[2] <= -30 || r.Values[2] >= 100 {
			t.Errorf("%s: energy saving %v%% implausible", r.Label, r.Values[2])
		}
	}
	if avg := tb.Mean(2); avg < 50 {
		t.Errorf("average saving %v%%, paper reports 79.49%%", avg)
	}
}

func TestFig8PonB(t *testing.T) {
	tb, err := quickContext().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r.Values[2] < 1 {
			t.Errorf("%s: near-bank not faster than PonB (%vx)", r.Label, r.Values[2])
		}
	}
	if avg := tb.Mean(2); avg < 1.5 {
		t.Errorf("average PonB speedup %vx, paper reports 3.61x", avg)
	}
}

func TestFig9Breakdown(t *testing.T) {
	tb, err := quickContext().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		var sum float64
		for _, v := range r.Values[:6] {
			if v < 0 {
				t.Errorf("%s: negative share %v", r.Label, v)
			}
			sum += v
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: breakdown sums to %v%%", r.Label, sum)
		}
	}
	if avg := tb.Mean(6); avg < 60 {
		t.Errorf("PIM-die share %v%%, paper reports 89.17%%", avg)
	}
}

func TestFig10Sensitivity(t *testing.T) {
	c := quickContext()
	rf, err := c.Fig10RF()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rf.Rows {
		// Normalized times must be non-increasing toward RF=128 (small
		// noise tolerated).
		for i := 0; i+1 < len(r.Values); i++ {
			if r.Values[i] < r.Values[i+1]*0.95 {
				t.Errorf("fig10a %s: RF step %d: %v < %v (more registers slower)", r.Label, i, r.Values[i], r.Values[i+1])
			}
		}
		if r.Values[len(r.Values)-1] != 1 {
			t.Errorf("fig10a %s: not normalized", r.Label)
		}
	}
	pg, err := c.Fig10PGSM()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pg.Rows {
		if r.Values[len(r.Values)-1] != 1 {
			t.Errorf("fig10b %s: not normalized", r.Label)
		}
		if r.Values[0] < 0.9 {
			t.Errorf("fig10b %s: 2KB much faster than 8KB (%v)", r.Label, r.Values[0])
		}
	}
}

func TestFig11InstructionMix(t *testing.T) {
	tb, err := quickContext().Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		var sum float64
		for _, v := range r.Values {
			sum += v
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: mix sums to %v%%", r.Label, sum)
		}
	}
	// Index calculation is a major share (paper: 23.25% average).
	if avg := tb.Mean(1); avg < 10 {
		t.Errorf("index-calc share %v%%, want a significant fraction", avg)
	}
}

func TestFig12CompilerAblation(t *testing.T) {
	tb, err := quickContext().Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		opt := r.Values[3]
		if opt < 1 {
			t.Errorf("%s: opt slower than baseline1 (%vx)", r.Label, opt)
		}
	}
	if avg := tb.Mean(3); avg < 1.2 {
		t.Errorf("average opt speedup %vx, paper reports 3.19x", avg)
	}
}

func TestFig13IPC(t *testing.T) {
	tb, err := quickContext().Fig13()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		ipc := r.Values[0]
		if ipc <= 0 || ipc > 1 {
			t.Errorf("%s: IPC %v out of (0,1]", r.Label, ipc)
		}
	}
	if avg := tb.Mean(0); avg < 0.2 {
		t.Errorf("average IPC %v, paper reports 0.63", avg)
	}
}

func TestTable4(t *testing.T) {
	tb, err := quickContext().Table4()
	if err != nil {
		t.Fatal(err)
	}
	// Total row reproduces the paper's 10.28 mm² / 10.71%.
	last := tb.Rows[len(tb.Rows)-1]
	if last.Label != "Total" {
		t.Fatal("missing Total row")
	}
	if last.Values[1] < 10.2 || last.Values[1] > 10.4 {
		t.Errorf("total area %v, want 10.28", last.Values[1])
	}
	if last.Values[2] < 10.5 || last.Values[2] > 11.0 {
		t.Errorf("overhead %v%%, want 10.71%%", last.Values[2])
	}
}

func TestByNameAndFormat(t *testing.T) {
	c := quickContext()
	tb, err := c.ByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	text := tb.Format()
	if !strings.Contains(text, "table4") || !strings.Contains(text, "PGSM") {
		t.Errorf("Format output missing content:\n%s", text)
	}
	if _, err := c.ByName("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(ExperimentNames()) != 20 {
		t.Errorf("experiment registry has %d entries", len(ExperimentNames()))
	}
	// Every registered name must dispatch.
	for _, name := range ExperimentNames() {
		if name == "fig6" || name == "fig12" {
			continue // covered by dedicated tests (slow)
		}
		if _, err := c.ByName(name); err != nil {
			t.Errorf("experiment %s failed: %v", name, err)
		}
	}
}

func TestFaultsSweep(t *testing.T) {
	tb, err := quickContext().FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("faults rows = %d, want 5", len(tb.Rows))
	}
	base := tb.Rows[0]
	if !math.IsInf(base.Values[0], 1) || base.Values[1] != 0 || base.Values[2] != 0 ||
		base.Values[3] != 0 || base.Values[4] != 0 {
		t.Errorf("rate-0 row not a clean baseline: %+v", base.Values)
	}
	top := tb.Rows[len(tb.Rows)-1]
	if top.Values[1] == 0 || top.Values[2] == 0 {
		t.Errorf("top-rate row injected no ECC events: %+v", top.Values)
	}
	if math.IsInf(top.Values[0], 1) {
		t.Error("top-rate row left the blur output untouched (infinite PSNR)")
	}
	if top.Values[3] == 0 || top.Values[4] <= 0 {
		t.Errorf("top-rate row shows no link-fault cycle overhead: %+v", top.Values)
	}
	// PSNR must not improve as the rate rises (rows with injections).
	for i := 2; i < len(tb.Rows); i++ {
		if tb.Rows[i].Values[0] > tb.Rows[i-1].Values[0] {
			t.Errorf("PSNR rose from %v to %v between %s and %s",
				tb.Rows[i-1].Values[0], tb.Rows[i].Values[0], tb.Rows[i-1].Label, tb.Rows[i].Label)
		}
	}
}

func TestStallsDiagnostic(t *testing.T) {
	tb, err := quickContext().Stalls()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("stalls rows = %d", len(tb.Rows))
	}
}

func TestThermalFeasibility(t *testing.T) {
	tb, err := quickContext().Thermal()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r.Values[0] <= 0 {
			t.Errorf("%s: non-positive cube power", r.Label)
		}
		// Paper's conclusion: every workload fits high-end active
		// cooling; the bandwidth-bound ones fit commodity cooling.
		if r.Values[4] != 1 {
			t.Errorf("%s: exceeds even high-end cooling (%.0f mW/mm2)", r.Label, r.Values[1])
		}
	}
	// Peak density in the paper's regime (~600 mW/mm²; same order).
	if m := tb.max(1); m < 100 || m > 1300 {
		t.Errorf("peak density %v mW/mm2 outside the plausible regime", m)
	}
}

func TestDRAMPolicyAblation(t *testing.T) {
	tb, err := quickContext().DRAMPolicy()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r.Values[0] != 1 {
			t.Errorf("%s: baseline column not normalized", r.Label)
		}
		// Close-page must hurt streaming workloads (every access pays
		// ACT+PRE; Table III's open-page default).
		if r.Values[2] < 1.1 {
			t.Errorf("%s: close-page FR-FCFS only %vx — open-page advantage lost", r.Label, r.Values[2])
		}
	}
}

func TestScalingEfficiency(t *testing.T) {
	tb, err := quickContext().Scaling()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		for i, col := range []int{3, 4} {
			eff := r.Values[col]
			if eff < 0.6 || eff > 1.6 {
				t.Errorf("%s: scaling efficiency %d = %v far from linear", r.Label, i, eff)
			}
		}
	}
}

func TestOffloadAmortization(t *testing.T) {
	tb, err := quickContext().Offload()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r.Values[2] <= 0 || r.Values[2] >= 100 {
			t.Errorf("%s: transfer share %v%% out of (0,100)", r.Label, r.Values[2])
		}
		if r.Values[3] < 1 {
			t.Errorf("%s: batch@10%% = %v", r.Label, r.Values[3])
		}
	}
}

func TestExchangeAblation(t *testing.T) {
	tb, err := quickContext().Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The deepest chain must favor exchange decisively; overlapped
	// recompute grows quadratically with depth.
	deep := tb.Rows[len(tb.Rows)-1]
	if deep.Values[2] < 2 {
		t.Errorf("chain-8 exchange speedup %vx, want >= 2x", deep.Values[2])
	}
	if deep.Values[3] < 2*deep.Values[4] {
		t.Errorf("chain-8 overlapped DRAM reads %vM not >> exchange %vM", deep.Values[3], deep.Values[4])
	}
}

func TestContextCachesRuns(t *testing.T) {
	c := quickContext()
	if _, err := c.Fig6(); err != nil {
		t.Fatal(err)
	}
	n := len(c.cache)
	if _, err := c.Fig7(); err != nil { // same runs reused
		t.Fatal(err)
	}
	if len(c.cache) != n {
		t.Errorf("Fig7 re-simulated: cache grew %d -> %d", n, len(c.cache))
	}
}

func TestSizeOfRespectsMinimum(t *testing.T) {
	c := NewContext()
	c.SizeDiv = 1 << 20 // absurd: must clamp at the distribution minimum
	vaultCfg := sim.OneVault()
	for _, wl := range suite() {
		w, h := c.sizeOf(wl)
		pipe := wl.Build().Pipe
		outW := w * pipe.OutNum / pipe.OutDen
		if outW/pipe.TileW < vaultCfg.PEsPerVault() {
			t.Errorf("%s: %dx%d too small for the tile distribution", wl.Name, w, h)
		}
	}
}
