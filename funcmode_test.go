package ipim

// The functional/timing split differential harness, in two halves:
//
//   - FunctionalMode must be a pure timing erasure: for any workload,
//     machine shape, schedule, fault plan, and worker count, the
//     functional interpreter must produce the same pixels, histogram
//     bins, and issued-instruction counts as the cycle-accurate
//     simulator — with Cycles pinned to zero and no timing counters.
//   - The run-level timing memo must be a pure host-time optimization
//     of cycle mode: a memoized run and an unmemoized one
//     (SetTimingMemo(false)) must agree bit for bit on the FULL
//     sim.Stats and the output, on any input image, and the memo must
//     be bypassed or flushed — never consulted stale — under fault
//     plans, budgets, Reset, and DRAM policy swaps.
//
// These are the safety nets behind every execFunc case in
// internal/vault/functional.go and every record in
// internal/cube/memo.go.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ipim/internal/dram"
)

// modeRun executes one compiled workload run on m, reducing image and
// histogram outputs to one comparable []float32.
func modeRun(t *testing.T, m *Machine, art *Artifact, img *Image, histogram bool, mode Mode) (Stats, []float32) {
	t.Helper()
	opts := RunOptions{Mode: mode}
	if histogram {
		bins, stats, err := RunHistogramContext(context.Background(), m, art, img, opts)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out := make([]float32, len(bins))
		for i, b := range bins {
			out[i] = float32(b)
		}
		return stats, out
	}
	out, stats, err := RunContext(context.Background(), m, art, img, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats, out.Pix
}

// TestFunctionalMatchesCycleAllWorkloads sweeps every Table II workload
// at two image sizes: functional and cycle mode must agree on pixels
// (or bins) and on the issued-instruction profile, while the functional
// run must carry no clock at all.
func TestFunctionalMatchesCycleAllWorkloads(t *testing.T) {
	for _, wl := range Workloads() {
		for _, scale := range []int{1, 2} {
			wl := wl
			t.Run(fmt.Sprintf("%s/%dx", wl.Name, scale), func(t *testing.T) {
				cfg := TinyOneVaultConfig()
				img := Synth(scale*wl.TestW, scale*wl.TestH, 7)
				art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				histogram := art.Plan.Pipe.Histogram

				mc, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cycStats, cycOut := modeRun(t, mc, art, img, histogram, CycleMode)

				mf, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				funStats, funOut := modeRun(t, mf, art, img, histogram, FunctionalMode)

				if !reflect.DeepEqual(cycOut, funOut) {
					t.Errorf("functional output diverges from cycle mode")
				}
				if funStats.Cycles != 0 {
					t.Errorf("functional run reports %d cycles; want 0", funStats.Cycles)
				}
				if funStats.Issued != cycStats.Issued {
					t.Errorf("issued instructions diverge: functional %d, cycle %d",
						funStats.Issued, cycStats.Issued)
				}
				if funStats.Syncs != cycStats.Syncs {
					t.Errorf("sync counts diverge: functional %d, cycle %d",
						funStats.Syncs, cycStats.Syncs)
				}
				if funStats.InstByCategory != cycStats.InstByCategory {
					t.Errorf("instruction mix diverges:\nfunctional %v\ncycle      %v",
						funStats.InstByCategory, cycStats.InstByCategory)
				}
				if funStats.DRAM.Reads != 0 || funStats.DRAM.Writes != 0 || funStats.NoC.Packets != 0 {
					t.Errorf("functional run touched timing counters: %+v", funStats)
				}
			})
		}
	}
}

// TestFunctionalRunOptionsOverride pins the per-run mode override: a
// cycle-mode machine runs one request functionally via RunOptions.Mode
// and then reverts — the next plain Run is cycle-accurate again.
func TestFunctionalRunOptionsOverride(t *testing.T) {
	cfg := TinyOneVaultConfig()
	wl, err := WorkloadByName("Brighten")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(wl.TestW, wl.TestH, 3)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := RunContext(context.Background(), m, art, img, RunOptions{Mode: FunctionalMode})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 0 {
		t.Fatalf("RunOptions{Mode: FunctionalMode} run reports %d cycles; want 0", stats.Cycles)
	}
	ref, refStats, err := Run(m, art, img)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Cycles == 0 {
		t.Error("mode override leaked: the following plain Run carried no clock")
	}
	if !reflect.DeepEqual(out.Pix, ref.Pix) {
		t.Error("functional override output diverges from the cycle run")
	}
}

// TestFunctionalSerialParallelIdentical: functional-mode stats are pure
// instruction counts, so they must be bit-identical at any phase-worker
// count — same contract cycle mode has, cheaper to violate by accident.
func TestFunctionalSerialParallelIdentical(t *testing.T) {
	cfg := detConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(2*wl.TestW, 2*wl.TestH, 11)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	var ref Stats
	var refOut []float32
	for i, par := range []int{1, 4} {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetParallelism(par)
		stats, out := modeRun(t, m, art, img, false, FunctionalMode)
		if i == 0 {
			ref, refOut = stats, out
			continue
		}
		if !reflect.DeepEqual(ref, stats) {
			t.Errorf("par=%d: functional stats diverge from serial:\nwant %+v\ngot  %+v", par, ref, stats)
		}
		if !reflect.DeepEqual(refOut, out) {
			t.Errorf("par=%d: functional output diverges from serial", par)
		}
	}
}

// TestMemoizedMatchesUnmemoizedRandomMatrix randomizes the machine shape,
// page/scheduling policies, workload, and fault rate, and runs each
// draw three times back-to-back on one machine — the pooled-reuse
// pattern under which runs recur — at worker counts 1 and 4, each run
// on its own image, so every hit is checked on pixels the recorded run
// never saw. Every run must agree bit for bit, stats and output,
// between the memoized machine and a SetTimingMemo(false) one; across
// the matrix the cache must score real hits (otherwise the
// differential is vacuous). The rand stream is fixed-seed: every run
// tests the same matrix.
func TestMemoizedMatchesUnmemoizedRandomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	workloads := []string{"Brighten", "GaussianBlur", "Shift", "Histogram", "Downsample", "Upsample"}
	rates := []float64{0, 1e-6}
	exercised := 0
	var totalHits int64
	for i := 0; i < 10; i++ {
		cfg := DefaultConfig()
		cfg.Cubes = 1 + rng.Intn(2)
		cfg.VaultsPerCube = []int{2, 4}[rng.Intn(2)]
		cfg.PGsPerVault = 1 + rng.Intn(2)
		cfg.PEsPerPG = []int{2, 4}[rng.Intn(2)]
		cfg.BankBytes = 1 << 20
		if rng.Intn(2) == 1 {
			cfg.Page = dram.ClosePage
		}
		if rng.Intn(2) == 1 {
			cfg.Sched = dram.FCFS
		}
		wlName := workloads[rng.Intn(len(workloads))]
		seed := rng.Uint64()
		rate := rates[i%len(rates)]
		wl, err := WorkloadByName(wlName)
		if err != nil {
			t.Fatal(err)
		}
		w, h := 2*wl.TestW, 2*wl.TestH
		art, err := Compile(&cfg, wl.Build().Pipe, w, h, Opt)
		if err != nil {
			// Some draws are legitimately incompatible (the compiler
			// rejects shapes whose PE count does not divide the tile
			// grid); the fixed rand seed keeps the skipped set stable.
			t.Logf("draw %d (%s, %d cubes × %d vaults, %d PGs × %d PEs) skipped: %v",
				i, wlName, cfg.Cubes, cfg.VaultsPerCube, cfg.PGsPerVault, cfg.PEsPerPG, err)
			continue
		}
		exercised++
		var plan *FaultPlan
		if rate > 0 {
			plan = &FaultPlan{Seed: seed ^ 0x9e37, DRAMBitFlipRate: rate, DRAMMultiBitFraction: 0.5}
		}
		histogram := art.Plan.Pipe.Histogram
		for _, workers := range []int{1, 4} {
			memoOn, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			memoOff, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			memoOn.SetParallelism(workers)
			memoOff.SetParallelism(workers)
			memoOff.SetTimingMemo(false)
			memoOn.SetFaultPlan(plan)
			memoOff.SetFaultPlan(plan)
			for run := 0; run < 3; run++ {
				img := Synth(w, h, seed+uint64(run))
				mStats, mOut := modeRun(t, memoOn, art, img, histogram, CycleMode)
				uStats, uOut := modeRun(t, memoOff, art, img, histogram, CycleMode)
				if !reflect.DeepEqual(mStats, uStats) {
					t.Errorf("draw %d run %d (%s, %d cubes × %d vaults, %d PGs × %d PEs, page=%v sched=%v, workers=%d, rate=%g): stats diverge:\nmemoized:   %+v\nunmemoized: %+v",
						i, run, wlName, cfg.Cubes, cfg.VaultsPerCube, cfg.PGsPerVault, cfg.PEsPerPG,
						cfg.Page, cfg.Sched, workers, rate, mStats, uStats)
				}
				if !reflect.DeepEqual(mOut, uOut) {
					t.Errorf("draw %d run %d (%s): output diverges between memoized and unmemoized", i, run, wlName)
				}
			}
			hits, _ := memoOn.TimingMemoStats()
			totalHits += hits
			if offHits, offMisses := memoOff.TimingMemoStats(); offHits != 0 || offMisses != 0 {
				t.Errorf("draw %d: SetTimingMemo(false) machine consulted the cache (%d hits, %d misses)",
					i, offHits, offMisses)
			}
		}
	}
	if exercised < 6 {
		t.Errorf("only %d of 10 matrix draws compiled — widen the shapes or reseed", exercised)
	}
	if totalHits == 0 {
		t.Error("no draw scored a memo hit — the memoized/unmemoized differential is vacuous")
	}
}

// warmMemo runs art on m repeatedly until the timing memoizer reaches
// steady state (a run served from cache), returning the hit/miss
// counters at that point. Fails the test if no hit appears — every
// invalidation case below needs a warm cache to invalidate.
func warmMemo(t *testing.T, m *Machine, art *Artifact, img *Image) (hits, misses int64) {
	t.Helper()
	for run := 0; run < 8; run++ {
		if _, _, err := Run(m, art, img); err != nil {
			t.Fatalf("warm-up run %d: %v", run, err)
		}
		if h, ms := m.TimingMemoStats(); h > 0 {
			return h, ms
		}
	}
	hits, misses = m.TimingMemoStats()
	t.Fatalf("memoizer never hit during warm-up (hits=%d misses=%d)", hits, misses)
	return
}

// TestTimingMemoInvalidation is the table-driven proof that the run
// memo is bypassed or flushed — never consulted stale — under every
// condition outside its key that can change what a run's timing means:
// fault plans, execution budgets, Reset and the memo switch. (DRAM
// policies are part of the key; internal/cube's
// TestRunMemoKeysDRAMPolicies covers swaps.)
func TestTimingMemoInvalidation(t *testing.T) {
	cfg := OneVaultConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(64, 32, 1)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	newWarm := func(t *testing.T) (*Machine, int64, int64) {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, ms := warmMemo(t, m, art, img)
		return m, h, ms
	}
	runOnce := func(t *testing.T, m *Machine) Stats {
		t.Helper()
		_, stats, err := Run(m, art, img)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	t.Run("reset-flushes", func(t *testing.T) {
		// After Reset the machine is back in the exact state the very
		// first recorded block was keyed on — only a flush prevents the
		// post-Reset run from replaying a pre-Reset block.
		m, h0, m0 := newWarm(t)
		m.Reset()
		runOnce(t, m)
		h, ms := m.TimingMemoStats()
		if h != h0 {
			t.Errorf("post-Reset run hit the cache (%d -> %d hits); Reset must flush", h0, h)
		}
		if ms <= m0 {
			t.Errorf("post-Reset run recorded no miss (misses %d -> %d)", m0, ms)
		}
	})

	t.Run("fault-plan-bypasses-and-flushes", func(t *testing.T) {
		// With a plan armed the memoizer must not even be consulted
		// (timing deltas can't replay fault rolls); and arming one must
		// flush, so clearing the plan later starts cold.
		m, h0, m0 := newWarm(t)
		m.SetFaultPlan(&FaultPlan{Seed: 9, DRAMBitFlipRate: 1e-6})
		runOnce(t, m)
		if h, ms := m.TimingMemoStats(); h != h0 || ms != m0 {
			t.Errorf("faulted run consulted the memoizer (hits %d -> %d, misses %d -> %d)", h0, h, m0, ms)
		}
		m.SetFaultPlan(nil)
		runOnce(t, m)
		if h, _ := m.TimingMemoStats(); h != h0 {
			t.Errorf("run after clearing the plan hit the cache (%d -> %d hits); SetFaultPlan must flush", h0, h)
		}
	})

	t.Run("budget-bypasses-without-flush", func(t *testing.T) {
		// An armed budget bypasses the cache (replay would skip the
		// per-cycle budget checks) but must NOT flush it: the budgeted
		// run executes identically, so the very next unbudgeted run is
		// back in steady state and hits.
		m, h0, m0 := newWarm(t)
		if _, _, err := RunContext(context.Background(), m, art, img, RunOptions{MaxCycles: 1 << 40}); err != nil {
			t.Fatal(err)
		}
		if h, ms := m.TimingMemoStats(); h != h0 || ms != m0 {
			t.Errorf("budgeted run consulted the memoizer (hits %d -> %d, misses %d -> %d)", h0, h, m0, ms)
		}
		// A single run may legitimately miss on a refresh-epoch regime
		// change; a few consecutive runs must reach a hit again — which
		// is only possible if the cache survived the budgeted run.
		for run := 0; run < 4; run++ {
			runOnce(t, m)
			if h, _ := m.TimingMemoStats(); h > h0 {
				return
			}
		}
		h, _ := m.TimingMemoStats()
		t.Errorf("no post-budget run hit (%d -> %d hits); budgets must bypass, not flush", h0, h)
	})

	t.Run("memo-off-switch-flushes", func(t *testing.T) {
		m, h0, _ := newWarm(t)
		m.SetTimingMemo(false)
		runOnce(t, m)
		m.SetTimingMemo(true)
		runOnce(t, m)
		if h, _ := m.TimingMemoStats(); h != h0 {
			t.Errorf("re-enabled memoizer replayed a pre-disable block (%d -> %d hits)", h0, h)
		}
	})
}

// TestMemoAbortReuseResetEquivalent: a budget abort on a warm memoized
// machine must flush the cache AND leave the machine bit-equivalent to
// fresh — the documented post-abort contract, now with cached timing
// blocks in the picture.
func TestMemoAbortReuseResetEquivalent(t *testing.T) {
	cfg := OneVaultConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(64, 32, 1)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := warmMemo(t, m, art, img)
	_, full, err := Run(m, art, img)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunContext(context.Background(), m, art, img, RunOptions{MaxCycles: full.Cycles / 3}); err == nil {
		t.Fatal("budget abort did not fire")
	}
	out, stats, err := Run(m, art, img)
	if err != nil {
		t.Fatalf("reuse after abort: %v", err)
	}
	if h, _ := m.TimingMemoStats(); h > h0+1 {
		t.Errorf("post-abort run replayed pre-abort blocks (%d -> %d hits); Abort must flush", h0, h)
	}
	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantStats, err := Run(fresh, art, img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("post-abort stats differ from a fresh machine:\nfresh:  %+v\nreused: %+v", wantStats, stats)
	}
	if !reflect.DeepEqual(out.Pix, wantOut.Pix) {
		t.Error("post-abort output differs from a fresh machine")
	}
}

// TestNoMemoEnvOverride pins the IPIM_NO_MEMO escape hatch: with the
// environment set, a freshly built machine never consults the block
// cache — and still produces identical results.
func TestNoMemoEnvOverride(t *testing.T) {
	cfg := OneVaultConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(64, 32, 1)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	run3 := func(m *Machine) []Stats {
		var out []Stats
		for i := 0; i < 3; i++ {
			_, stats, err := Run(m, art, img)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, stats)
		}
		return out
	}
	ref, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := run3(ref)
	t.Setenv("IPIM_NO_MEMO", "1")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.TimingMemo() {
		t.Error("IPIM_NO_MEMO=1 machine still reports the memoizer enabled")
	}
	got := run3(m)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("IPIM_NO_MEMO=1 runs diverge from memoized runs:\nwant %+v\ngot  %+v", want, got)
	}
	if h, ms := m.TimingMemoStats(); h != 0 || ms != 0 {
		t.Errorf("IPIM_NO_MEMO=1 machine consulted the cache (%d hits, %d misses)", h, ms)
	}
}

// TestHistogramAllModes pins RunHistogram as a mode invariant: the bins
// must be bit-identical under the zero Mode, an explicit CycleMode,
// and the functional interpreter — and a tiny execution
// budget must abort every mode with the same typed ErrCycleBudget,
// worded in that mode's own unit (cycles vs. issued instructions).
func TestHistogramAllModes(t *testing.T) {
	cfg := TinyOneVaultConfig()
	wl, err := WorkloadByName("Histogram")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(2*wl.TestW, wl.TestH, 13)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}

	var ref []int32
	for _, mc := range []struct {
		name string
		mode Mode
	}{
		{"default", 0}, // the zero Mode
		{"cycle", CycleMode},
		{"functional", FunctionalMode},
	} {
		t.Run(mc.name, func(t *testing.T) {
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bins, stats, err := RunHistogramContext(context.Background(), m, art, img,
				RunOptions{Mode: mc.mode})
			if err != nil {
				t.Fatal(err)
			}
			if mc.mode == FunctionalMode {
				if stats.Cycles != 0 {
					t.Errorf("functional histogram reports %d cycles; want 0", stats.Cycles)
				}
			} else if stats.Cycles == 0 {
				t.Errorf("%s histogram carried no clock", mc.name)
			}
			if ref == nil {
				ref = bins
			} else if !reflect.DeepEqual(bins, ref) {
				t.Errorf("%s bins diverge from the first mode's:\nwant %v\ngot  %v",
					mc.name, ref, bins)
			}
		})
	}

	for _, bc := range []struct {
		name string
		mode Mode
		want string
	}{
		{"cycle", CycleMode, "cycles into the run"},
		{"functional", FunctionalMode, "instructions into the run"},
	} {
		t.Run("budget-"+bc.name, func(t *testing.T) {
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = RunHistogramContext(context.Background(), m, art, img,
				RunOptions{Mode: bc.mode, MaxCycles: 8})
			if !errors.Is(err, ErrCycleBudget) {
				t.Fatalf("err = %v, want ErrCycleBudget", err)
			}
			if !strings.Contains(err.Error(), bc.want) {
				t.Errorf("%s budget abort should say %q: %q", bc.name, bc.want, err)
			}
			// The abort left the machine reusable: the full run succeeds.
			bins, _, err := RunHistogram(m, art, img)
			if err != nil {
				t.Fatalf("machine unusable after budget abort: %v", err)
			}
			if !reflect.DeepEqual(bins, ref) {
				t.Errorf("post-abort bins diverge from the unbudgeted run")
			}
		})
	}
}
