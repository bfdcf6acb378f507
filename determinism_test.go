package ipim

// The determinism harness gating the parallel phase loop in
// internal/cube: a Machine.Run schedule — serial, or any worker count —
// must never show through in the results. Every test here compares the
// FULL sim.Stats with reflect.DeepEqual (cycle counts, stall breakdown,
// NoC/SERDES counters, DRAM counters, everything) plus the functional
// output, on a multi-cube multi-vault machine so cross-vault req
// traffic and the SERDES mesh are exercised.

import (
	"reflect"
	"testing"
)

// detConfig is a 2-cube × 4-vault machine (2 PGs × 2 PEs per vault):
// big enough for inter-vault and inter-cube traffic, small enough that
// the many runs below stay fast.
func detConfig() Config {
	cfg := DefaultConfig()
	cfg.Cubes = 2
	cfg.VaultsPerCube = 4
	cfg.PGsPerVault = 2
	cfg.PEsPerPG = 2
	cfg.BankBytes = 1 << 20
	return cfg
}

// detRun compiles wl for the detConfig machine and runs it on a fresh
// machine with the given phase parallelism. The functional result comes
// back as []float32 pixels (or the histogram bins reinterpreted, so
// every workload compares the same way).
func detRun(t *testing.T, wlName string, seed uint64, parallelism int) (Stats, []float32) {
	t.Helper()
	stats, out, _ := detRunSkipped(t, wlName, seed, parallelism)
	return stats, out
}

// detRunSkipped is detRun that also returns the idle cycles the run's
// vault clocks jumped over (Machine.FastForwardedCycles).
func detRunSkipped(t *testing.T, wlName string, seed uint64, parallelism int) (Stats, []float32, int64) {
	t.Helper()
	cfg := detConfig()
	wl, err := WorkloadByName(wlName)
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(2*wl.TestW, 2*wl.TestH, seed)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatalf("compile %s: %v", wlName, err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetParallelism(parallelism)
	if wlName == "Histogram" {
		bins, stats, err := RunHistogram(m, art, img)
		if err != nil {
			t.Fatalf("run %s: %v", wlName, err)
		}
		out := make([]float32, len(bins))
		for i, b := range bins {
			out[i] = float32(b)
		}
		return stats, out, m.FastForwardedCycles()
	}
	out, stats, err := Run(m, art, img)
	if err != nil {
		t.Fatalf("run %s: %v", wlName, err)
	}
	return stats, out.Pix, m.FastForwardedCycles()
}

// TestParallelRunMatchesSerial is the core determinism contract: for
// each workload, a forced-serial run and a parallel run (worker pool
// wider than GOMAXPROCS, so goroutines really interleave) must agree
// bit for bit on stats and output, and on the skipped-cycle tally,
// which every one of these stall-heavy runs must move.
func TestParallelRunMatchesSerial(t *testing.T) {
	for _, wlName := range []string{"Brighten", "GaussianBlur", "Shift", "Histogram"} {
		t.Run(wlName, func(t *testing.T) {
			serialStats, serialOut, serialFF := detRunSkipped(t, wlName, 11, 1)
			parStats, parOut, parFF := detRunSkipped(t, wlName, 11, 4)
			if !reflect.DeepEqual(serialStats, parStats) {
				t.Errorf("stats diverge between serial and parallel:\nserial:   %+v\nparallel: %+v",
					serialStats, parStats)
			}
			if !reflect.DeepEqual(serialOut, parOut) {
				t.Errorf("functional output diverges between serial and parallel")
			}
			if serialStats.Cycles <= 0 || serialStats.Issued <= 0 {
				t.Errorf("degenerate run: %+v", serialStats)
			}
			if serialFF != parFF {
				t.Errorf("skipped-cycle tally diverges: serial %d, parallel %d", serialFF, parFF)
			}
			if serialFF == 0 {
				t.Error("run jumped no idle cycles — its waits were not skipped")
			}
		})
	}
}

// TestParallelRunScheduleInvariance sweeps worker counts crossed with
// input seeds: every worker count must reproduce the same stats for a
// given seed, and distinct seeds must still be told apart (guarding
// against a trivially-constant fold).
func TestParallelRunScheduleInvariance(t *testing.T) {
	workers := []int{1, 2, 3, 4, 8}
	seeds := []uint64{1, 2, 3, 4, 5}
	var perSeed [][]float32
	for _, seed := range seeds {
		ref, refOut := detRun(t, "GaussianBlur", seed, workers[0])
		perSeed = append(perSeed, refOut)
		for _, w := range workers[1:] {
			got, gotOut := detRun(t, "GaussianBlur", seed, w)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("seed %d: stats at parallelism %d diverge from parallelism %d:\nwant %+v\ngot  %+v",
					seed, w, workers[0], ref, got)
			}
			if !reflect.DeepEqual(refOut, gotOut) {
				t.Errorf("seed %d: output at parallelism %d diverges", seed, w)
			}
		}
	}
	// Timing is data-independent for a blur (same instruction stream
	// regardless of pixel values), so stats legitimately agree across
	// seeds; the outputs must not, or the comparison is vacuous.
	distinct := false
	for i := 1; i < len(perSeed); i++ {
		if !reflect.DeepEqual(perSeed[0], perSeed[i]) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all seeds produced identical outputs — the comparison is vacuous")
	}
}

// TestParallelHistogramCrossVaultInvariance pins the hardest path — the
// histogram's cross-vault req reduction, where every vault reads seven
// remote vaults' banks over the NoC and SERDES meshes — across worker
// counts.
func TestParallelHistogramCrossVaultInvariance(t *testing.T) {
	ref, refOut := detRun(t, "Histogram", 3, 1)
	if ref.RemoteReqs == 0 {
		t.Fatal("histogram run issued no remote reqs — the test lost its teeth")
	}
	if ref.SerdesBeat == 0 {
		t.Fatal("histogram run moved no SERDES traffic — cross-cube path untested")
	}
	for _, w := range []int{2, 4, 8} {
		got, gotOut := detRun(t, "Histogram", 3, w)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("histogram stats at parallelism %d diverge from serial:\nwant %+v\ngot  %+v", w, ref, got)
		}
		if !reflect.DeepEqual(refOut, gotOut) {
			t.Errorf("histogram bins at parallelism %d diverge from serial", w)
		}
	}
}
