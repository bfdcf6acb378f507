package ipim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ipim/internal/pixel"
)

// TestMachinesRunConcurrently pins down the machine concurrency
// contract the serving daemon depends on (see NewMachine): a compiled
// Artifact and an input image are read-only at run time, so the same
// artifact may execute on many distinct Machines in parallel — and
// must produce identical output on each. Run under -race this also
// proves no shared mutable state leaks between machines.
func TestMachinesRunConcurrently(t *testing.T) {
	cfg := TinyConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(wl.TestW, wl.TestH, 11)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}

	const nMachines = 4
	outs := make([]*Image, nMachines)
	var wg sync.WaitGroup
	for i := 0; i < nMachines; i++ {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, m *Machine) {
			defer wg.Done()
			// Each machine runs the shared artifact twice, so
			// back-to-back runs on one machine interleave with runs on
			// the others.
			for rep := 0; rep < 2; rep++ {
				out, stats, err := Run(m, art, img)
				if err != nil {
					t.Errorf("machine %d rep %d: %v", i, rep, err)
					return
				}
				if stats.Cycles <= 0 {
					t.Errorf("machine %d rep %d: nonpositive cycles", i, rep)
				}
				outs[i] = out
			}
		}(i, m)
	}
	wg.Wait()

	want, err := wl.Build().Pipe.Reference(img)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out == nil {
			t.Fatalf("machine %d produced no output", i)
		}
		if d := pixel.MaxAbsDiff(out, want); d != 0 {
			t.Errorf("machine %d deviates from the golden model by %g", i, d)
		}
		if i > 0 {
			if err := sameImage(outs[0], out); err != nil {
				t.Errorf("machine %d differs from machine 0: %v", i, err)
			}
		}
	}
}

// TestMachineReuseReportsPerRunStats pins the other half of the
// pooled-worker contract: every run starts from a fresh machine, so a
// reused Machine reports exactly the Stats a fresh one gives the same
// run — not counters accumulated since its creation, and no timing
// carried over from earlier runs.
func TestMachineReuseReportsPerRunStats(t *testing.T) {
	cfg := TinyConfig()
	wl, err := WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	img := Synth(wl.TestW, wl.TestH, 11)
	art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first Stats
	for rep := 0; rep < 4; rep++ {
		_, stats, err := Run(m, art, img)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if rep == 0 {
			first = stats
			continue
		}
		if !reflect.DeepEqual(stats, first) {
			t.Errorf("rep %d: Stats differ from the fresh machine's run:\n got %+v\nwant %+v", rep, stats, first)
		}
	}
}

func sameImage(a, b *Image) error {
	if a.W != b.W || a.H != b.H {
		return fmt.Errorf("dims %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return fmt.Errorf("pixel %d: %g vs %g", i, a.Pix[i], b.Pix[i])
		}
	}
	return nil
}
