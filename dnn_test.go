package ipim

// Differential harness for the DNN/GEMM workload family: every member
// must agree bit for bit with its independent host golden reference
// (plain Go loops in internal/workloads/dnn.go) AND with the halide
// reference interpreter, across image sizes, with the multi-array
// stage-ahead schedule on and off, in cycle and functional modes, at
// any phase-worker count. The multi-array schedule must also actually
// pay: fewer cycles than the baseline list schedule on the GEMM and
// conv operators (the EXPERIMENTS.md DNN table's claim, pinned here at
// reduced size).

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ipim/internal/pixel"
	"ipim/internal/workloads"
)

// dnnImg synthesizes the family's canonical input: heights are fixed
// by operator geometry, so only the width scales.
func dnnImg(w, h int) *Image {
	return Synth(w, h, uint64(w)*1_000_003+uint64(h))
}

func TestDNNGoldenSweep(t *testing.T) {
	for _, wl := range DNNWorkloads() {
		for _, scale := range []int{1, 2} {
			for _, multiArray := range []bool{true, false} {
				wl, w, h := wl, scale*wl.TestW, wl.TestH
				t.Run(fmt.Sprintf("%s/%dx%d/multiarray=%v", wl.Name, w, h, multiArray), func(t *testing.T) {
					cfg := TinyConfig()
					pipe := wl.Build().Pipe.MultiArraySchedule(multiArray)
					img := dnnImg(w, h)
					art, err := Compile(&cfg, pipe, img.W, img.H, Opt)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					m, err := NewMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					out, stats, err := Run(m, art, img)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					golden := wl.Host(img)
					if !reflect.DeepEqual(out.Pix, golden.Pix) {
						t.Errorf("simulated output deviates from the host golden by %g",
							pixel.MaxAbsDiff(out, golden))
					}
					ref, err := pipe.Reference(img)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref.Pix, golden.Pix) {
						t.Errorf("reference interpreter deviates from the host golden by %g",
							pixel.MaxAbsDiff(ref, golden))
					}
					if stats.Cycles <= 0 || stats.Issued <= 0 {
						t.Errorf("degenerate stats: %+v", stats)
					}
					// The plan must model the per-vault PE arrays, and
					// double-buffer the staging partitions exactly when the
					// stage-ahead schedule engages (needs >1 tile per PE).
					if len(art.Plan.Arrays) != cfg.PGsPerVault {
						t.Fatalf("plan models %d arrays; config has %d PGs per vault",
							len(art.Plan.Arrays), cfg.PGsPerVault)
					}
					wantBufs := 1
					if multiArray && art.Plan.TilesPerPE > 1 {
						wantBufs = 2
					}
					for _, a := range art.Plan.Arrays {
						if a.Buffers != wantBufs {
							t.Errorf("array PG%d has %d staging buffers, want %d (multiArray=%v, tiles/PE=%d)",
								a.PG, a.Buffers, wantBufs, multiArray, art.Plan.TilesPerPE)
						}
					}
				})
			}
		}
	}
}

// TestDNNScheduleInvariant pins that the multi-array schedule is a pure
// timing optimization: identical pixels either way, same instruction
// stream semantics, and on a machine wide enough for staged tiles it
// must cost strictly fewer cycles than the baseline list schedule on
// the GEMM and conv operators.
func TestDNNScheduleInvariant(t *testing.T) {
	mustBeat := map[string]bool{"GEMM": true, "Conv3x3": true}
	for _, wl := range DNNWorkloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			cfg := OneVaultConfig()
			img := dnnImg(wl.BenchW, wl.BenchH)
			run := func(multiArray bool) (*Image, Stats) {
				pipe := wl.Build().Pipe.MultiArraySchedule(multiArray)
				art, err := Compile(&cfg, pipe, img.W, img.H, Opt)
				if err != nil {
					t.Fatalf("compile (multiArray=%v): %v", multiArray, err)
				}
				if multiArray && art.Plan.Arrays[0].Buffers != 2 {
					t.Fatalf("stage-ahead schedule did not engage (tiles/PE=%d)", art.Plan.TilesPerPE)
				}
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, stats, err := Run(m, art, img)
				if err != nil {
					t.Fatalf("run (multiArray=%v): %v", multiArray, err)
				}
				return out, stats
			}
			base, baseStats := run(false)
			ma, maStats := run(true)
			if !reflect.DeepEqual(base.Pix, ma.Pix) {
				t.Errorf("multi-array schedule changed the output")
			}
			if !reflect.DeepEqual(base.Pix, wl.Host(img).Pix) {
				t.Errorf("baseline output deviates from the host golden")
			}
			if mustBeat[wl.Name] && maStats.Cycles >= baseStats.Cycles {
				t.Errorf("multi-array schedule does not pay: %d cycles vs baseline %d",
					maStats.Cycles, baseStats.Cycles)
			}
			t.Logf("%s: baseline %d cycles, multi-array %d cycles (%.2fx)",
				wl.Name, baseStats.Cycles, maStats.Cycles,
				float64(baseStats.Cycles)/float64(maStats.Cycles))
		})
	}
}

// TestDNNFunctionalMatchesCycle: the functional interpreter must erase
// only timing for the DNN family too — same pixels and instruction
// profile with the stage-ahead schedule's prefetch stream in play.
func TestDNNFunctionalMatchesCycle(t *testing.T) {
	for _, wl := range DNNWorkloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			cfg := TinyConfig()
			img := dnnImg(2*wl.TestW, wl.TestH)
			art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			mc, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cycOut, cycStats, err := Run(mc, art, img)
			if err != nil {
				t.Fatalf("cycle run: %v", err)
			}
			mf, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			funOut, funStats, err := RunContext(context.Background(), mf, art, img, RunOptions{Mode: FunctionalMode})
			if err != nil {
				t.Fatalf("functional run: %v", err)
			}
			if !reflect.DeepEqual(cycOut.Pix, funOut.Pix) {
				t.Errorf("functional output diverges from cycle mode")
			}
			if funStats.Cycles != 0 {
				t.Errorf("functional run reports %d cycles; want 0", funStats.Cycles)
			}
			if funStats.Issued != cycStats.Issued {
				t.Errorf("issued instructions diverge: functional %d, cycle %d",
					funStats.Issued, cycStats.Issued)
			}
			if funStats.InstByCategory != cycStats.InstByCategory {
				t.Errorf("instruction mix diverges:\nfunctional %v\ncycle      %v",
					funStats.InstByCategory, cycStats.InstByCategory)
			}
		})
	}
}

// TestDNNSerialParallelIdentical extends the determinism contract to
// the DNN family on a multi-cube machine: full stats and pixels must
// be schedule-invariant in both execution modes.
func TestDNNSerialParallelIdentical(t *testing.T) {
	for _, wl := range DNNWorkloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			cfg := detConfig()
			img := dnnImg(8*wl.TestW, wl.TestH)
			art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, mode := range []Mode{CycleMode, FunctionalMode} {
				var ref Stats
				var refOut []float32
				for i, par := range []int{1, 4} {
					m, err := NewMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					m.SetParallelism(par)
					out, stats, err := RunContext(context.Background(), m, art, img, RunOptions{Mode: mode})
					if err != nil {
						t.Fatalf("run (mode=%v par=%d): %v", mode, par, err)
					}
					if i == 0 {
						ref, refOut = stats, out.Pix
						continue
					}
					if !reflect.DeepEqual(ref, stats) {
						t.Errorf("mode %v: stats diverge between serial and parallel:\nserial:   %+v\nparallel: %+v",
							mode, ref, stats)
					}
					if !reflect.DeepEqual(refOut, out.Pix) {
						t.Errorf("mode %v: output diverges between serial and parallel", mode)
					}
				}
			}
		})
	}
}

// TestPackConv2D pins the clamp-padding packer against the Conv3x3
// plane layout: each channel's plane replicates its own edge rows, no
// cross-channel bleed, and ragged channel splits are rejected.
func TestPackConv2D(t *testing.T) {
	const c, h, w = 2, 4, 5
	act := Synth(w, c*h, 99)
	packed, err := workloads.PackConv2D(act, c)
	if err != nil {
		t.Fatal(err)
	}
	if packed.W != w || packed.H != c*(h+2) {
		t.Fatalf("packed shape %dx%d, want %dx%d", packed.W, packed.H, w, c*(h+2))
	}
	for ch := 0; ch < c; ch++ {
		for r := 0; r < h+2; r++ {
			src := r - 1
			if src < 0 {
				src = 0
			}
			if src >= h {
				src = h - 1
			}
			for x := 0; x < w; x++ {
				if got, want := packed.At(x, ch*(h+2)+r), act.At(x, ch*h+src); got != want {
					t.Fatalf("channel %d plane row %d col %d: %g, want %g", ch, r, x, got, want)
				}
			}
		}
	}
	if _, err := workloads.PackConv2D(act, 3); err == nil {
		t.Error("ragged channel split accepted")
	}
}
