package vault

import (
	"fmt"

	"ipim/internal/dram"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Block-level timing memoizer (cycle mode). The unit of caching is one
// barrier phase — the run of instructions from a phase-entry pc to the
// next sync or end of program, which is exactly a basic block at the
// granularity the machine schedules (control flow inside a phase is
// resolved by the CRF, which is part of the key). The insight from the
// ROADMAP: a block entered with the same architectural and
// bank-scheduling state costs the same cycles, so its timing can be
// replayed instead of re-simulated.
//
// Key = exact state comparison, not a digest: (program identity, entry
// pc) indexes the cache, and a candidate block matches only if the
// entry CRF, every PE's AddrRF, the I$ tags, and each bank-touching
// PG's canonical DRAM timing snapshot (dram.TimingSnapshot, rebased to
// the vault clock) are all equal, with DRAM refresh matched under the
// windowing rule below. Exact comparison removes any hash-collision
// soundness risk: a hit *proves* the recorded run started from an
// equivalent state.
//
// Miss path: the ordinary cycle-mode issue loop runs unchanged (so
// memoized runs are bit-identical to stepwise by construction on every
// miss; its data effects go through the same execFunc the hit path
// replays), while a recorder notes two things per instruction: opcodes
// that disqualify the block from caching, and which PGs see bank
// traffic. Disqualifiers are req (it touches the vault's NoC port
// shard and vsmReady, neither of which is in the key) and mov_arf (it
// makes future addresses depend on DataRF contents, which are not in
// the key).
//
// Hit path: the block is re-executed *functionally* (execFunc — real
// data movement, real branch evaluation, real pc updates), then the
// recorded timing is applied wholesale: clock delta, per-counter stats
// delta, exit I$ tags, exit canonical controller snapshots and
// controller-counter deltas for the touched PGs, and the fast-forward
// diagnostic delta. Untouched PGs are never consulted by the cycle
// loop for an empty queue, so they need neither keying nor restoring.
//
// Refresh windowing: requiring the refresh epoch to line up exactly
// would make every block miss (tREFI-relative phase almost never
// repeats). Instead, a block recorded with zero refreshes and no live
// blackout matches any entry state whose next refresh boundary lies
// beyond the block's recorded duration — every time comparison the
// block can make stays strictly below the boundary, so the epoch is
// provably untouched and is left alone on replay. Blocks that did
// refresh (or were recorded under a live blackout) fall back to exact
// relative epoch equality and restore the recorded exit epoch.
//
// The memoizer arms only when the reference semantics are in force and
// nothing excluded from the key is live: fast-forward on (stepwise is
// the reference mode the differential tests compare against), no
// tracer, no fault plan, no cycle budgets, and empty in-flight/remote
// state at the phase boundary. Everything is vault-owned, so the cache
// is schedule-independent and race-free by the same argument as the
// rest of the vault.

// memoKey addresses one cache bucket: program identity and entry pc.
type memoKey struct {
	prog *isa.Program
	pc   int
}

// memoBlock is one recorded phase: the entry state that must match and
// the timing effects to apply on a hit.
type memoBlock struct {
	// Entry state (exact copies; key comparison).
	crf     []int32
	arf     [][]int32             // per vault-wide PE index
	itags   []int64               // I$ tags (nil when the config has no I$)
	touched []int                 // PG ids with bank traffic, ascending
	entry   []dram.TimingSnapshot // canonical entry state per touched PG

	// Recorded effects.
	dNow       int64                 // clock advance across the block
	statsDelta sim.Stats             // vault counter delta (plain fold)
	ffDelta    int64                 // fast-forward diagnostic delta
	ctrlStats  []dram.Stats          // controller counter delta per touched PG
	exit       []dram.TimingSnapshot // canonical exit state per touched PG
	itagsExit  []int64
	exitPC     int
	exitDone   bool
}

// Cache bounds: per-entry-pc candidate list and a global block cap
// (beyond it the whole cache flushes — phases are large, so a full
// cache means the workload does not repeat and caching it is moot).
const (
	memoMaxPerKey = 4
	memoMaxBlocks = 256
)

// timingMemo is one vault's block cache plus recording scratch state.
type timingMemo struct {
	blocks map[memoKey][]*memoBlock
	size   int

	hits, misses int64

	// Recording scratch (reused across phases; active between
	// beginRecord and commit on the miss path).
	recPC        int
	recCRF       []int32
	recARF       [][]int32
	recITags     []int64
	recNow       int64
	recFF        int64
	recStats     sim.Stats
	recCtrl      []dram.TimingSnapshot // per PG (all PGs)
	recCtrlStats []dram.Stats          // per PG (all PGs)
	recTouched   []bool                // per PG
	disqualified bool

	// Lookup scratch: current canonical snapshot per PG, captured
	// lazily per lookup (capValid marks which are fresh this lookup).
	capSnap  []dram.TimingSnapshot
	capValid []bool
	// restoreRefresh[i] tells replay whether touched PG i's refresh
	// epoch must be restored from the exit snapshot (exact-match
	// regime) or left alone (no-refresh-window regime).
	restoreRefresh []bool
}

// memoUsable reports whether this phase may consult the block cache:
// memoizer on, reference-mode features quiescent, and no timing state
// outside the key live at the phase boundary.
func (v *Vault) memoUsable() bool {
	return v.memo != nil && !v.memoOff && !v.stepwise && v.tracer == nil &&
		v.fp == nil && !v.budget.Enabled() &&
		len(v.inflight) == 0 && len(v.vsmReady) == 0
}

// SetTimingMemo enables (the default) or disables the block timing
// memoizer for this vault; disabling flushes the cache. Disabled, every
// phase re-simulates through the full timing model — the semantics the
// memoizer is differentially tested against. Stats are bit-identical
// either way. Not safe to call during an active run.
func (v *Vault) SetTimingMemo(on bool) {
	v.memoOff = !on
	if !on {
		v.FlushTimingMemo()
	}
}

// FlushTimingMemo drops every cached block (hit/miss counters are
// preserved). The vault flushes itself on Abort, fault-plan changes and
// DRAM policy changes; the machine exposes this for tests and for any
// out-of-band mutation of timing-relevant state.
func (v *Vault) FlushTimingMemo() {
	if v.memo == nil {
		return
	}
	v.memo.blocks = nil
	v.memo.size = 0
}

// TimingMemoStats reports the memoizer's lifetime hit and miss counts
// (host-side diagnostics, not part of sim.Stats).
func (v *Vault) TimingMemoStats() (hits, misses int64) {
	if v.memo == nil {
		return 0, 0
	}
	return v.memo.hits, v.memo.misses
}

// memoPhase runs one phase through the memoizer: replay on a key match,
// otherwise record around the ordinary cycle loop. Only called when
// memoUsable.
func (v *Vault) memoPhase() (bool, error) {
	mm := v.memo
	if blk := mm.lookup(v); blk != nil {
		mm.hits++
		return v.replayBlock(blk, mm.restoreRefresh)
	}
	mm.misses++
	mm.beginRecord(v)
	done, err := v.runPhaseCycle(true)
	if err == nil {
		mm.commit(v, done)
	}
	return done, err
}

// lookup scans the candidate blocks for the current (prog, pc) and
// returns the first whose entry state matches the vault's, filling
// mm.restoreRefresh for the touched PGs. Nil means miss.
func (mm *timingMemo) lookup(v *Vault) *memoBlock {
	if mm.blocks == nil {
		return nil
	}
	cands := mm.blocks[memoKey{v.prog, v.pc}]
	if len(cands) == 0 {
		return nil
	}
	// Lazily capture current canonical controller state, once per PG
	// across all candidates.
	if cap(mm.capSnap) < len(v.PGs) {
		mm.capSnap = make([]dram.TimingSnapshot, len(v.PGs))
		mm.capValid = make([]bool, len(v.PGs))
	}
	mm.capSnap = mm.capSnap[:len(v.PGs)]
	mm.capValid = mm.capValid[:len(v.PGs)]
	for i := range mm.capValid {
		mm.capValid[i] = false
	}
next:
	for _, blk := range cands {
		if !eqI32(blk.crf, v.CRF) || !eqI64(blk.itags, v.icache) {
			continue
		}
		for i, slot := range v.peList {
			if !eqI32(blk.arf[i], slot.pe.AddrRF) {
				continue next
			}
		}
		mm.restoreRefresh = mm.restoreRefresh[:0]
		for i, pgID := range blk.touched {
			if !mm.capValid[pgID] {
				v.PGs[pgID].Ctrl.CaptureTiming(v.now, &mm.capSnap[pgID])
				mm.capValid[pgID] = true
			}
			cur := &mm.capSnap[pgID]
			ent := &blk.entry[i]
			if !cur.CoreEqual(ent) {
				continue next
			}
			nrCur, ruCur := cur.RefreshRel()
			nrEnt, ruEnt := ent.RefreshRel()
			switch {
			case blk.ctrlStats[i].Refreshes == 0 && ruEnt <= 0 && ruCur <= 0 && nrCur > blk.dNow:
				// No-refresh window: every time the block compares
				// against the boundary is <= entry+dNow < nextRefresh,
				// so the epoch is untouched in both runs.
				mm.restoreRefresh = append(mm.restoreRefresh, false)
			case nrCur == nrEnt && ruCur == ruEnt:
				// Exact epoch match: the replayed run would evolve the
				// epoch exactly as recorded; restore the recorded exit.
				mm.restoreRefresh = append(mm.restoreRefresh, true)
			default:
				continue next
			}
		}
		return blk
	}
	return nil
}

// replayBlock re-executes the block functionally and applies the
// recorded timing: the definition of a memo hit.
func (v *Vault) replayBlock(blk *memoBlock, restoreRefresh []bool) (bool, error) {
	base := v.now
	for {
		if v.pc >= len(v.prog.Ins) {
			v.done = true
			break
		}
		in := &v.prog.Ins[v.pc]
		if in.Op == isa.OpSync {
			v.pc++
			break
		}
		if v.interrupt != nil {
			if v.sinceCheck++; v.sinceCheck >= InterruptEvery {
				v.sinceCheck = 0
				if err := v.interrupt(); err != nil {
					v.Stats.Cycles = v.now
					return false, fmt.Errorf("vault %d/%d: pc=%d: %w", v.CubeID, v.ID, v.pc, err)
				}
			}
		}
		if err := v.execFunc(in); err != nil {
			return false, fmt.Errorf("vault %d/%d: pc=%d %s: %w", v.CubeID, v.ID, v.pc, in.Op, err)
		}
	}
	if v.pc != blk.exitPC || v.done != blk.exitDone {
		// Unreachable if the key comparison is sound; fail loudly
		// rather than corrupt timing.
		return false, fmt.Errorf("vault %d/%d: timing memo replay diverged: pc=%d done=%v, recorded pc=%d done=%v",
			v.CubeID, v.ID, v.pc, v.done, blk.exitPC, blk.exitDone)
	}
	v.now = base + blk.dNow
	v.Stats.AddCounters(&blk.statsDelta)
	v.Stats.Cycles = v.now
	v.ffSkipped += blk.ffDelta
	copy(v.icache, blk.itagsExit)
	for i, pgID := range blk.touched {
		ctrl := v.PGs[pgID].Ctrl
		ctrl.RestoreTiming(&blk.exit[i], v.now, restoreRefresh[i])
		ctrl.Stats.Add(blk.ctrlStats[i])
	}
	return blk.exitDone, nil
}

// beginRecord snapshots the entry state before a miss runs the cycle
// loop. All PGs are snapshotted (the touched set is unknown until the
// block retires); scratch slices are reused so steady-state recording
// of already-cached-but-evicted phases does not allocate.
func (mm *timingMemo) beginRecord(v *Vault) {
	mm.recPC = v.pc
	mm.recCRF = append(mm.recCRF[:0], v.CRF...)
	if cap(mm.recARF) < len(v.peList) {
		mm.recARF = make([][]int32, len(v.peList))
	}
	mm.recARF = mm.recARF[:len(v.peList)]
	for i, slot := range v.peList {
		mm.recARF[i] = append(mm.recARF[i][:0], slot.pe.AddrRF...)
	}
	mm.recITags = append(mm.recITags[:0], v.icache...)
	mm.recNow = v.now
	mm.recFF = v.ffSkipped
	mm.recStats = v.Stats
	if cap(mm.recCtrl) < len(v.PGs) {
		mm.recCtrl = make([]dram.TimingSnapshot, len(v.PGs))
		mm.recCtrlStats = make([]dram.Stats, len(v.PGs))
		mm.recTouched = make([]bool, len(v.PGs))
	}
	mm.recCtrl = mm.recCtrl[:len(v.PGs)]
	mm.recCtrlStats = mm.recCtrlStats[:len(v.PGs)]
	mm.recTouched = mm.recTouched[:len(v.PGs)]
	for pg := range v.PGs {
		v.PGs[pg].Ctrl.CaptureTiming(v.now, &mm.recCtrl[pg])
		mm.recCtrlStats[pg] = v.PGs[pg].Ctrl.Stats
		mm.recTouched[pg] = false
	}
	mm.disqualified = false
}

// note observes one instruction on the recording path: disqualifying
// opcodes and the touched-PG set (from the SIMB mask of bank ops).
func (mm *timingMemo) note(v *Vault, in *isa.Instruction) {
	switch in.Op {
	case isa.OpReq, isa.OpMovARF:
		mm.disqualified = true
	case isa.OpLdRF, isa.OpStRF, isa.OpLdPGSM, isa.OpStPGSM:
		mask := in.SimbMask
		nPE := v.Cfg.PEsPerVault()
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) != 0 {
				mm.recTouched[i/v.Cfg.PEsPerPG] = true
			}
		}
	}
}

// commit stores the just-recorded phase as a memo block (unless a
// disqualifying instruction ran).
func (mm *timingMemo) commit(v *Vault, done bool) {
	if mm.disqualified {
		return
	}
	if mm.size >= memoMaxBlocks {
		mm.blocks = nil
		mm.size = 0
	}
	if mm.blocks == nil {
		mm.blocks = make(map[memoKey][]*memoBlock)
	}
	blk := &memoBlock{
		crf:       append([]int32(nil), mm.recCRF...),
		arf:       make([][]int32, len(mm.recARF)),
		itags:     append([]int64(nil), mm.recITags...),
		dNow:      v.now - mm.recNow,
		ffDelta:   v.ffSkipped - mm.recFF,
		itagsExit: append([]int64(nil), v.icache...),
		exitPC:    v.pc,
		exitDone:  done,
	}
	for i := range mm.recARF {
		blk.arf[i] = append([]int32(nil), mm.recARF[i]...)
	}
	blk.statsDelta = v.Stats
	blk.statsDelta.SubCounters(&mm.recStats)
	for pg, t := range mm.recTouched {
		if !t {
			continue
		}
		ctrl := v.PGs[pg].Ctrl
		blk.touched = append(blk.touched, pg)
		blk.entry = append(blk.entry, mm.recCtrl[pg].Clone())
		blk.ctrlStats = append(blk.ctrlStats, ctrl.Stats.Delta(mm.recCtrlStats[pg]))
		var exit dram.TimingSnapshot
		ctrl.CaptureTiming(v.now, &exit)
		blk.exit = append(blk.exit, exit)
	}
	key := memoKey{v.prog, mm.recPC}
	bs := mm.blocks[key]
	if len(bs) >= memoMaxPerKey {
		copy(bs, bs[1:])
		bs = bs[:len(bs)-1]
		mm.size--
	}
	mm.blocks[key] = append(bs, blk)
	mm.size++
}

// eqI32 reports element-wise equality.
func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eqI64 reports element-wise equality.
func eqI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
