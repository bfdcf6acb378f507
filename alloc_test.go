package ipim

import (
	"slices"
	"testing"

	"ipim/internal/compiler"
	"ipim/internal/isa"
)

// TestRunAllocations bounds the heap objects one run allocates, however
// long its program: the control core's issue loop and hazard check build
// nothing per instruction. Each Table II kernel runs at test size on
// tiny-onevault with the timing memo off, so every run is simulated in
// full, and on, where every run after the first is a memo hit that
// replays functionally (all kernels but Histogram, whose mov_arf keeps
// it out of the memo).
func TestRunAllocations(t *testing.T) {
	const maxAllocs = 64
	cfg := TinyOneVaultConfig()
	for _, wl := range Workloads() {
		art, err := Compile(&cfg, wl.Build().Pipe, wl.TestW, wl.TestH, Opt)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		movARF := slices.ContainsFunc(art.Prog.Ins, func(in isa.Instruction) bool { return in.Op == isa.OpMovARF })
		for _, memo := range []bool{false, true} {
			if memo && movARF {
				continue
			}
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SetTimingMemo(memo)
			if err := compiler.LoadInput(m, art, Synth(wl.TestW, wl.TestH, 1)); err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := compiler.Execute(m, art); err != nil {
					t.Fatal(err)
				}
			}
			run() // fills the entry and request pools, records the memo
			if n := testing.AllocsPerRun(4, run); n >= maxAllocs {
				t.Errorf("%s (memo %v, %d instructions): %.0f allocations per run, want < %d",
					wl.Name, memo, len(art.Prog.Ins), n, maxAllocs)
			}
			if hits, _ := m.TimingMemoStats(); memo && hits < 4 {
				t.Errorf("%s: %d memo hits in 5 repeated runs", wl.Name, hits)
			}
		}
	}
}
