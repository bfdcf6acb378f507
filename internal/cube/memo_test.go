package cube

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ipim/internal/dram"
	"ipim/internal/fault"
	"ipim/internal/isa"
	"ipim/internal/sim"
	"ipim/internal/vault"
)

// memoSrc is brightenSrc followed by a barrier and a second phase, so a
// memoized run spans a machine-wide sync on both vaults.
const memoSrc = brightenSrc + `
sync 1
ld_rf d2, 0x100, sm=*
comp fadd vv d3, d2, d2, vm=0xf, sm=*
st_rf d3, 0x200, sm=*
`

// memoInputs loads memoSrc's VSM constant and seed-dependent bank
// contents onto every PE of every vault of m.
func memoInputs(t *testing.T, m *Machine, seed int) {
	t.Helper()
	for c := range m.Vaults {
		for vid := range m.Vaults[c] {
			if err := m.WriteVSM(c, vid, 0, f32bytes(2.0, 2.0, 2.0, 2.0)); err != nil {
				t.Fatal(err)
			}
			for pg := 0; pg < m.Cfg.PGsPerVault; pg++ {
				for pe := 0; pe < m.Cfg.PEsPerPG; pe++ {
					var in []float32
					for i := 0; i < 16; i++ {
						in = append(in, float32(seed*1000+vid*100+pg*10+pe)+float32(i)/4)
					}
					if err := m.WriteBank(c, vid, pg, pe, 0, f32bytes(in...)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// memoOutputs reads memoSrc's two output regions from every PE of m.
func memoOutputs(t *testing.T, m *Machine) []byte {
	t.Helper()
	var out []byte
	for c := range m.Vaults {
		for vid := range m.Vaults[c] {
			for pg := 0; pg < m.Cfg.PGsPerVault; pg++ {
				for pe := 0; pe < m.Cfg.PEsPerPG; pe++ {
					for _, addr := range []uint32{0x100, 0x200} {
						b, err := m.ReadBank(c, vid, pg, pe, addr, 64)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, b...)
					}
				}
			}
		}
	}
	return out
}

func runSameOK(t *testing.T, m *Machine, p *isa.Program, opts sim.RunOptions) sim.Stats {
	t.Helper()
	stats, err := m.RunSameContext(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestRunMemoHitMatchesMemoOff: a repeat run on new inputs hits and
// returns the Stats of a memo-off machine, its outputs come from the
// functional replay, and FastForwardedCycles moves on a hit by what
// the recorded run skipped.
func TestRunMemoHitMatchesMemoOff(t *testing.T) {
	p := mustAssemble(t, memoSrc)
	on, off := newTinyMachine(t), newTinyMachine(t)
	off.SetTimingMemo(false)
	var recordedFF int64
	for run := 0; run < 3; run++ {
		memoInputs(t, on, run)
		memoInputs(t, off, run)
		ffOn0, ffOff0 := on.FastForwardedCycles(), off.FastForwardedCycles()
		got := runSameOK(t, on, p, sim.RunOptions{})
		want := runSameOK(t, off, p, sim.RunOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: memoized stats differ from memo-off:\nmemo %+v\noff  %+v", run, got, want)
		}
		if !bytes.Equal(memoOutputs(t, on), memoOutputs(t, off)) {
			t.Errorf("run %d: memoized outputs differ from memo-off", run)
		}
		ffOn := on.FastForwardedCycles() - ffOn0
		if ffOff := off.FastForwardedCycles() - ffOff0; ffOn != ffOff {
			t.Errorf("run %d: fast-forward tally moved %d with the memo, %d without", run, ffOn, ffOff)
		}
		if run == 0 {
			recordedFF = ffOn
		} else if ffOn != recordedFF {
			t.Errorf("run %d: hit moved the fast-forward tally %d, recorded run %d", run, ffOn, recordedFF)
		}
	}
	if recordedFF == 0 {
		t.Error("recorded run skipped no cycles; the fast-forward check is vacuous")
	}
	if h, ms := on.TimingMemoStats(); h != 2 || ms != 1 {
		t.Errorf("memo tallies = %d hits, %d misses; want 2, 1", h, ms)
	}
	if h, ms := off.TimingMemoStats(); h != 0 || ms != 0 {
		t.Errorf("memo-off machine counted %d hits, %d misses", h, ms)
	}
}

// warmMemoMachine returns a tiny machine whose memo has recorded p and
// answered one repeat of it.
func warmMemoMachine(t *testing.T, p *isa.Program) *Machine {
	t.Helper()
	m := newTinyMachine(t)
	memoInputs(t, m, 0)
	runSameOK(t, m, p, sim.RunOptions{})
	runSameOK(t, m, p, sim.RunOptions{})
	if h, ms := m.TimingMemoStats(); h != 1 || ms != 1 {
		t.Fatalf("warm-up tallies = %d hits, %d misses; want 1, 1", h, ms)
	}
	return m
}

// TestRunMemoBypasses: every condition outside the memo's key makes a
// run bypass it, leaving both tallies unchanged; the bypasses that do
// not flush leave the record in place for the next eligible run.
func TestRunMemoBypasses(t *testing.T) {
	p := mustAssemble(t, memoSrc)
	for _, tc := range []struct {
		name    string
		opts    sim.RunOptions
		set     func(m *Machine)
		unset   func(m *Machine)
		flushes bool
	}{
		{name: "tracer",
			set: func(m *Machine) { m.Vault(0, 1).SetTracer(&vault.Tracer{}) }, unset: func(m *Machine) { m.Vault(0, 1).SetTracer(nil) }},
		{name: "fault-plan", flushes: true,
			set: func(m *Machine) { m.SetFaultPlan(&fault.Plan{Seed: 3, DRAMBitFlipRate: 1e-6}) }, unset: func(m *Machine) { m.SetFaultPlan(nil) }},
		{name: "mixed-dram-policies",
			set:   func(m *Machine) { m.Vault(0, 1).PGs[0].Ctrl.SetPolicies(dram.ClosePage, dram.FCFS) },
			unset: func(m *Machine) { m.Vault(0, 1).PGs[0].Ctrl.SetPolicies(m.Cfg.Page, m.Cfg.Sched) }},
		{name: "max-cycles", opts: sim.RunOptions{MaxCycles: 1 << 40}},
		{name: "max-phase-steps", opts: sim.RunOptions{MaxPhaseSteps: 1 << 40}},
		{name: "checkpoint-sink", opts: sim.RunOptions{CheckpointEvery: 1, CheckpointSink: func([]byte) error { return nil }}},
		{name: "functional", opts: sim.RunOptions{Mode: sim.FunctionalMode}},
		{name: "memo-off", flushes: true,
			set: func(m *Machine) { m.SetTimingMemo(false) }, unset: func(m *Machine) { m.SetTimingMemo(true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := warmMemoMachine(t, p)
			if tc.set != nil {
				tc.set(m)
			}
			runSameOK(t, m, p, tc.opts)
			if h, ms := m.TimingMemoStats(); h != 1 || ms != 1 {
				t.Errorf("bypassed run moved the tallies to %d hits, %d misses", h, ms)
			}
			if tc.unset != nil {
				tc.unset(m)
			}
			runSameOK(t, m, p, sim.RunOptions{})
			want := [2]int64{2, 1} // the record survived: a hit
			if tc.flushes {
				want = [2]int64{1, 2}
			}
			if h, ms := m.TimingMemoStats(); [2]int64{h, ms} != want {
				t.Errorf("next eligible run left the tallies at %d hits, %d misses; want %v", h, ms, want)
			}
		})
	}
}

// TestRunMemoFlushes: each flush point drops the records, so the next
// run of the same programs is simulated in full.
func TestRunMemoFlushes(t *testing.T) {
	p := mustAssemble(t, memoSrc)
	for _, tc := range []struct {
		name  string
		flush func(t *testing.T, m *Machine)
	}{
		{"reset", func(t *testing.T, m *Machine) { m.Reset() }},
		{"fault-plan", func(t *testing.T, m *Machine) { m.SetFaultPlan(nil) }},
		{"memo-off", func(t *testing.T, m *Machine) { m.SetTimingMemo(false); m.SetTimingMemo(true) }},
		{"restore", func(t *testing.T, m *Machine) {
			data, err := m.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Restore(data); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := warmMemoMachine(t, p)
			tc.flush(t, m)
			runSameOK(t, m, p, sim.RunOptions{})
			if h, ms := m.TimingMemoStats(); h != 1 || ms != 2 {
				t.Errorf("run after the flush left the tallies at %d hits, %d misses; want 1, 2", h, ms)
			}
		})
	}
}

// TestRunMemoKeysDRAMPolicies: records are keyed on the DRAM policies
// the run's controllers ran under. A run under other policies misses
// and returns what a memo-off machine returns under them; swapping the
// policies back hits the record made before the swap.
func TestRunMemoKeysDRAMPolicies(t *testing.T) {
	p := mustAssemble(t, memoSrc)
	m := warmMemoMachine(t, p)
	base := runSameOK(t, m, p, sim.RunOptions{})

	off := newTinyMachine(t)
	off.SetTimingMemo(false)
	memoInputs(t, off, 0)
	off.SetDRAMPolicy(dram.ClosePage, dram.FCFS)
	want := runSameOK(t, off, p, sim.RunOptions{})
	if reflect.DeepEqual(want, base) {
		t.Fatal("close-page FCFS stats equal the default policies' stats; the test shows nothing")
	}

	m.SetDRAMPolicy(dram.ClosePage, dram.FCFS)
	if got := runSameOK(t, m, p, sim.RunOptions{}); !reflect.DeepEqual(got, want) {
		t.Errorf("close-page FCFS run differs from memo-off:\nmemo %+v\noff  %+v", got, want)
	}
	if h, ms := m.TimingMemoStats(); h != 2 || ms != 2 {
		t.Errorf("after the swap the tallies are %d hits, %d misses; want 2, 2 (a miss)", h, ms)
	}

	m.SetDRAMPolicy(m.Cfg.Page, m.Cfg.Sched)
	if got := runSameOK(t, m, p, sim.RunOptions{}); !reflect.DeepEqual(got, base) {
		t.Errorf("run after swapping back differs from the first policies' run:\nback  %+v\nfirst %+v", got, base)
	}
	if h, ms := m.TimingMemoStats(); h != 3 || ms != 2 {
		t.Errorf("after swapping back the tallies are %d hits, %d misses; want 3, 2 (a hit)", h, ms)
	}
}

// TestRunMemoMovARFAlwaysMisses: mov_arf makes addresses, and so
// timing, depend on data, so such a run is simulated in full every
// time. Here a bin of 0 keeps the second access in the input's open
// row and any other bin misses it, so the Stats follow the inputs.
func TestRunMemoMovARFAlwaysMisses(t *testing.T) {
	// Each PE increments the counter in the DRAM row its pixel selects.
	p := mustAssemble(t, `
ld_rf d0, 0x0, sm=*
comp f2i vv d1, d0, d0, vm=0x1, sm=*
mov_arf a4, d1, lane=0, sm=*
calc_arf shl a4, a4, #11, sm=*
calc_arf iadd a4, a4, #64, sm=*
ld_rf d2, @a4, sm=*
comp iadd vv d2, d2, d2, vm=0x1, sm=*
st_rf d2, @a4, sm=*
`)
	on, off := newTinyMachine(t), newTinyMachine(t)
	off.SetTimingMemo(false)
	var runs []sim.Stats
	for run := 0; run < 3; run++ {
		for _, m := range []*Machine{on, off} {
			for c := range m.Vaults {
				for vid := range m.Vaults[c] {
					for pg := 0; pg < m.Cfg.PGsPerVault; pg++ {
						for pe := 0; pe < m.Cfg.PEsPerPG; pe++ {
							if err := m.WriteBank(c, vid, pg, pe, 0, f32bytes(float32(run), 0, 0, 0)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
		got := runSameOK(t, on, p, sim.RunOptions{})
		want := runSameOK(t, off, p, sim.RunOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: stats differ from memo-off:\nmemo %+v\noff  %+v", run, got, want)
		}
		runs = append(runs, want)
	}
	if reflect.DeepEqual(runs[0], runs[1]) {
		t.Error("row-hit and row-miss inputs gave identical Stats; the test no longer shows data-dependent timing")
	}
	if h, ms := on.TimingMemoStats(); h != 0 || ms != 3 {
		t.Errorf("mov_arf runs left the tallies at %d hits, %d misses; want 0, 3", h, ms)
	}
}
