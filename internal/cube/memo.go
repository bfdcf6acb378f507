package cube

// Run-level timing memo (cycle mode). Every run starts from a fresh
// machine (vault.Load rewinds each active vault and RunContext rewinds
// the link shards), the control core stalls only on register hazards
// and the DRAM controllers schedule by address (paper Sec. IV-B,
// IV-E). Control flow depends on the CRF, which only immediates and
// CRF arithmetic write; addresses depend on the AddrRF, which only
// mov_arf fills from data (Table I). So a cycle-mode run's sim.Stats
// are a function of its programs, the configuration and the DRAM
// policies alone, unless a program contains mov_arf — whatever the
// input image.
//
// The memo records the Stats of each eligible run under its active
// vaults, their programs and the DRAM policies they ran under. A later
// run of the same programs under the same policies executes in
// FunctionalMode, through the same execFunc cycle mode applies every
// data effect with, so its outputs are computed afresh, and returns the
// recorded Stats. Exact key comparison (pointer identity of finalized
// programs, which records keep alive) leaves no collision risk.
//
// A run may consult the memo only when nothing outside the key can
// steer its timing: memo on, no fault plan, no tracer on an active
// vault, every active controller under the same policies (only a
// restored checkpoint could mix them), and cycle mode with no budget
// and no checkpoint sink (a checkpoint holds cycle-mode timing state
// that a functional replay never builds). A run that fails these
// conditions bypasses the memo and leaves it intact. The memo flushes
// on Reset (so on every cancel and budget abort), SetFaultPlan, Restore
// and SetTimingMemo(false); SetDRAMPolicy leaves it intact, so a
// machine that swaps policies per run keeps the records of each.

import (
	"context"
	"slices"

	"ipim/internal/dram"
	"ipim/internal/isa"
	"ipim/internal/sim"
	"ipim/internal/vault"
)

// memoMaxRuns caps the recorded runs. A full memo flushes: a workload
// that fills it does not repeat, and keeping its records buys nothing.
const memoMaxRuns = 256

// runRecord is one recorded cycle-mode run.
type runRecord struct {
	keys  [][2]int       // active vaults, ascending (cube, vault)
	progs []*isa.Program // each active vault's program, in keys order
	pol   policies       // the DRAM policies the run's controllers ran under
	stats sim.Stats      // what the run returned
	ff    int64          // idle cycles the run's vaults jumped over
}

// policies is a DRAM controller's row-buffer and scheduling policy.
type policies struct {
	page  dram.PagePolicy
	sched dram.SchedPolicy
}

// runMemo is the machine's recorded runs and its lifetime tallies.
type runMemo struct {
	records      []*runRecord
	hits, misses int64
	ff           int64 // fast-forwarded cycles credited by hits
}

// flush drops every record; the tallies survive.
func (mm *runMemo) flush() { mm.records = nil }

// lookup returns the record of the run with these keys, programs and
// policies, or nil.
func (mm *runMemo) lookup(keys [][2]int, progs []*isa.Program, pol policies) *runRecord {
	for _, r := range mm.records {
		if r.pol == pol && slices.Equal(r.keys, keys) && slices.Equal(r.progs, progs) {
			return r
		}
	}
	return nil
}

// memoEligible reports whether a run with these active vaults and
// options may consult the memo.
func (m *Machine) memoEligible(active []*vault.Vault, opts sim.RunOptions) bool {
	if m.memoOff || m.fplan != nil ||
		opts.Mode != sim.CycleMode || opts.Enabled() || opts.CheckpointSink != nil {
		return false
	}
	pol := policiesOf(active[0].PGs[0].Ctrl)
	for _, v := range active {
		if v.Tracer() != nil {
			return false
		}
		for _, pg := range v.PGs {
			if policiesOf(pg.Ctrl) != pol {
				return false
			}
		}
	}
	return true
}

func policiesOf(c *dram.Controller) policies {
	page, sched := c.Policies()
	return policies{page, sched}
}

// memoRun drives an eligible run: a hit replays it functionally and
// returns the recorded Stats, a miss simulates it in full and records
// it unless a program contains mov_arf.
func (m *Machine) memoRun(ctx context.Context, keys [][2]int, progs []*isa.Program, active []*vault.Vault, opts sim.RunOptions) (sim.Stats, error) {
	mm := &m.memo
	pol := policiesOf(active[0].PGs[0].Ctrl) // shared by every active controller
	if r := mm.lookup(keys, progs, pol); r != nil {
		mm.hits++
		replay := opts
		replay.Mode = sim.FunctionalMode
		if _, err := m.finishRun(ctx, keys, active, replay); err != nil {
			return sim.Stats{}, err
		}
		mm.ff += r.ff
		return r.stats, nil
	}
	mm.misses++
	ff0 := m.FastForwardedCycles()
	stats, err := m.finishRun(ctx, keys, active, opts)
	if err != nil || movesDataToAddr(progs) {
		return stats, err
	}
	if len(mm.records) >= memoMaxRuns {
		mm.flush()
	}
	mm.records = append(mm.records, &runRecord{
		keys: keys, progs: progs, pol: pol, stats: stats, ff: m.FastForwardedCycles() - ff0,
	})
	return stats, nil
}

// movesDataToAddr reports whether any program contains mov_arf, whose
// data-dependent addresses make a run's timing depend on its inputs.
func movesDataToAddr(progs []*isa.Program) bool {
	for _, p := range progs {
		for i := range p.Ins {
			if p.Ins[i].Op == isa.OpMovARF {
				return true
			}
		}
	}
	return false
}
