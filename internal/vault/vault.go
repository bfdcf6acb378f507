// Package vault implements iPIM's control core and the vault-level
// execution model (paper Sec. IV-B): a pipelined, single-issue, in-order
// core on the base logic die that checks true/anti/output dependencies
// against an Issued Instruction Queue at issue time (no forwarding),
// broadcasts SIMB instructions to the vault's process engines over the
// shared TSVs, and retires an instruction only when every PE selected by
// its simb_mask has finished (lock-step execution).
//
// Functional execution happens at issue time in program order, which is
// exact for an in-order core, through the one architectural executor
// every mode shares (execFunc, functional.go). Timing is a layer on
// top: completion *times* are computed from the Table III latencies,
// the per-PG DRAM controllers, TSV serialization and the NoC, and drive
// all stalls (hazards, queue capacity, DRAM request queue
// back-pressure, branches, barriers).
package vault

import (
	"fmt"
	"math"
	"math/bits"

	"ipim/internal/dram"
	"ipim/internal/engine"
	"ipim/internal/fault"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Remote is the machine-level service a vault uses for inter-vault
// accesses (the req instruction) — implemented by the cube package.
//
// Concurrency: RunPhase may execute on a different goroutine each
// phase (the machine's phase worker pool), so both methods must be
// safe to call concurrently from many vaults' goroutines AND return
// schedule-independent results. Everything else a vault touches during
// RunPhase is vault-owned (PGs, controllers, VSM, register files,
// in-flight queue, clock) or immutable (*sim.Config, the loaded
// *isa.Program, which may be shared read-only across vaults); these
// Remote calls are the only cross-vault edges in the timed path.
type Remote interface {
	// RemoteRead returns 16 bytes from the addressed remote bank.
	RemoteRead(chip, vlt, pg, pe int, addr uint32) ([]byte, error)
	// RemoteRoundTrip returns the local arrival time of the 16-byte
	// response for a req injected at now by (srcChip, srcVault).
	RemoteRoundTrip(now int64, srcChip, srcVault, dstChip, dstVault int) int64
}

// entry is one Issued Instruction Queue slot. Entries are recycled
// through the vault's free list (newEntry/freeEntry): an entry pointer
// is live exactly while it sits in the inflight queue, so reuse cannot
// alias two in-flight instructions.
type entry struct {
	regs      isa.Regs // the instruction's registers, for the hazard check
	completes int64
	// Pending bank requests (emptied once resolved).
	reqs []*dram.Request
	// post-DRAM latency (PE bus + RF/PGSM write) added per request.
	extra int64
	// usesTSV marks bank traffic that must serialize on the vault TSVs
	// (PonB mode).
	usesTSV bool
}

// peSlot pairs a PE with its process group, precomputed per vault-wide
// PE index so the per-instruction broadcast loops avoid a div/mod.
type peSlot struct {
	pg *engine.PG
	pe *engine.PE
}

// Vault is one vault: control core state plus its process groups.
type Vault struct {
	Cfg    *sim.Config // shared machine configuration (immutable)
	CubeID int         // cube (chip) index within the machine
	ID     int         // vault index within the cube

	PGs []*engine.PG // process groups, indexed by PG id
	VSM []byte       // vault shared memory backing store
	CRF []int32      // control-core scalar register file

	// Stats counts the current run in simulated cycles and events;
	// Load zeroes it, so it always covers one run from its start.
	Stats sim.Stats

	remote Remote

	prog     *isa.Program
	pc       int
	now      int64
	inflight []*entry
	tsvFree  int64
	vsmReady map[uint32]int64
	done     bool
	tracer   *Tracer

	// peList[i] is the (PG, PE) pair at vault-wide PE index i.
	peList []peSlot

	// The register slab: every PE's DataRF and AddrRF, register-major
	// (paper Sec. IV-E). With n PEs, lane l of DataRF[r] on vault-wide
	// PE p is drf[(r*n+p)*isa.VecLanes+l], and AddrRF[r] of PE p is
	// arf[r*n+p], a raw 32-bit word like the data lanes. A SIMB
	// instruction names one register on every PE, so each of its
	// operands is one contiguous slice (dreg, areg). scratch holds
	// 2*n*isa.VecLanes words: a broadcast operand, then the result of a
	// masked comp or calc_arf before its selected lanes are copied back.
	drf, arf, scratch []uint32

	// Free lists for issued-queue entries and DRAM requests. Both kinds
	// of object have exact lifetimes (an entry dies when it leaves
	// inflight; a request dies when resolve consumes its Finish time),
	// so recycling is safe and keeps the issue loop allocation-free in
	// steady state.
	entryPool []*entry
	reqPool   []*dram.Request

	// ffSkipped counts idle cycles the vault's clock crossed in a
	// single jump without simulating them individually (the interior
	// of every multi-cycle stall advance). Diagnostic only, and not
	// part of sim.Stats: the stall charge already covers these cycles.
	ffSkipped int64
	// ffIssue accumulates ffSkipped within the current instruction's
	// issue, for the tracer's fast-forward attribution.
	ffIssue int64

	// Direct-mapped instruction cache tags (line index per set; -1 =
	// invalid). The VSM backs the I$ (paper Sec. IV-E).
	icache []int64

	// Fault injection (nil = disabled). The event counters are owned by
	// this vault and advance only with its own serial execution, so the
	// fault stream is independent of the machine's phase schedule (see
	// internal/fault). faultN counts 128-bit bank reads; execN counts
	// execution phases.
	fp        *fault.Plan
	faultN    uint64
	execN     uint64
	execSite  uint64
	bankSites [][]uint64 // [pg][bank] decision-site ids

	// Run control, armed per run by the machine (BeginRun). limited
	// gates every check with one branch so an unarmed vault's issue
	// loop is untouched. Budget checks read only vault-owned state
	// (clock, issue counters), so the error point is identical on
	// every phase schedule; the interrupt hook (context cancellation)
	// is polled at a bounded instruction interval and is the only
	// wall-clock-dependent exit.
	limited    bool
	budget     sim.RunOptions
	interrupt  func() error
	phaseSteps int64 // instructions issued in the current phase
	sinceCheck int   // instructions since the interrupt hook last ran

	// funcMode runs phases through the functional interpreter (no cycle
	// accounting; see functional.go). Armed per run by BeginRun.
	funcMode bool
}

// New builds a vault.
func New(cfg *sim.Config, cubeID, vaultID int, remote Remote) *Vault {
	v := &Vault{
		Cfg:      cfg,
		CubeID:   cubeID,
		ID:       vaultID,
		VSM:      make([]byte, cfg.VSMBytes),
		CRF:      make([]int32, cfg.CtrlRFEntries),
		remote:   remote,
		vsmReady: make(map[uint32]int64),
		done:     true,
	}
	for pg := 0; pg < cfg.PGsPerVault; pg++ {
		v.PGs = append(v.PGs, engine.NewPG(cfg, pg))
	}
	n := cfg.PEsPerVault()
	for i := 0; i < n; i++ {
		pg := v.PGs[i/cfg.PEsPerPG]
		v.peList = append(v.peList, peSlot{pg: pg, pe: pg.PEs[i%cfg.PEsPerPG]})
	}
	v.drf = make([]uint32, cfg.DataRFEntries*n*isa.VecLanes)
	v.arf = make([]uint32, cfg.AddrRFEntries*n)
	v.scratch = make([]uint32, 2*n*isa.VecLanes)
	v.resetRegs()
	if cfg.ICacheLines > 0 && cfg.ICacheLineInstr > 0 {
		v.icache = make([]int64, cfg.ICacheLines)
		for i := range v.icache {
			v.icache[i] = -1
		}
	}
	return v
}

// FastForwardedCycles reports how many idle cycles this vault's clock
// has crossed in jumps without simulating them individually,
// cumulatively over the vault's lifetime. This is a host-side
// diagnostic (units: simulated cycles); it is not part of sim.Stats
// and does not fold across vaults.
func (v *Vault) FastForwardedCycles() int64 { return v.ffSkipped }

// advanceTo moves the vault clock forward to t, charging the wait to
// the given stall reason. Every stall advance goes through it, and
// every caller computes t before the call (docs/ARCHITECTURE.md, "Idle
// cycles: the wait contract"): the clock jumps straight to t, charges
// (t - now) cycles to reason and counts the interior cycles as
// skipped. No-op when t <= now.
func (v *Vault) advanceTo(t int64, reason sim.StallReason) {
	if t <= v.now {
		return
	}
	d := t - v.now
	if d > 1 {
		v.ffSkipped += d - 1
		v.ffIssue += d - 1
	}
	v.Stats.StallCycles[reason] += d
	v.now = t
}

// newEntry pops a recycled issued-queue entry (or allocates one).
func (v *Vault) newEntry() *entry {
	if n := len(v.entryPool); n > 0 {
		e := v.entryPool[n-1]
		v.entryPool = v.entryPool[:n-1]
		return e
	}
	return &entry{}
}

// freeEntry returns an entry (and the requests it still references) to
// the free lists. Only call once the entry has left inflight.
func (v *Vault) freeEntry(e *entry) {
	for _, r := range e.reqs {
		v.reqPool = append(v.reqPool, r)
	}
	e.reqs = e.reqs[:0]
	e.completes, e.extra, e.usesTSV = 0, 0, false
	v.entryPool = append(v.entryPool, e)
}

// newReq pops a recycled DRAM request (or allocates one). The caller
// overwrites every field that matters: Bank/Addr/Write here,
// Arrive/Done/issued in Enqueue, Finish when the controller issues it.
func (v *Vault) newReq(bank int, addr uint32, write bool) *dram.Request {
	if n := len(v.reqPool); n > 0 {
		r := v.reqPool[n-1]
		v.reqPool = v.reqPool[:n-1]
		r.Bank, r.Addr, r.Write = bank, addr, write
		return r
	}
	return &dram.Request{Bank: bank, Addr: addr, Write: write}
}

// fetch models the instruction fetch: a direct-mapped I$ miss refills
// the line from the VSM, bubbling the pipeline.
func (v *Vault) fetch(pc int) {
	if v.icache == nil {
		return
	}
	line := int64(pc / v.Cfg.ICacheLineInstr)
	set := int(line) % len(v.icache)
	if v.icache[set] == line {
		return
	}
	v.icache[set] = line
	v.advanceTo(v.now+int64(v.Cfg.ICacheMissCost), sim.StallIFetch)
}

// PE returns the PE at (pg, pe).
func (v *Vault) PE(pg, pe int) *engine.PE { return v.PGs[pg].PEs[pe] }

// Registers returns copies of the DataRF and AddrRF of the PE at
// vault-wide index pe (pgID*PEsPerPG + peID).
func (v *Vault) Registers(pe int) (data []engine.Vector, addr []int32) {
	data = make([]engine.Vector, v.Cfg.DataRFEntries)
	for r := range data {
		data[r] = *vec(v.dreg(r), pe)
	}
	addr = make([]int32, v.Cfg.AddrRFEntries)
	for r := range addr {
		addr[r] = int32(v.areg(r)[pe])
	}
	return data, addr
}

// dreg returns DataRF register r's lanes on every PE of the vault.
func (v *Vault) dreg(r int) []uint32 {
	n := len(v.peList) * isa.VecLanes
	return v.drf[r*n : (r+1)*n : (r+1)*n]
}

// areg returns AddrRF register r on every PE of the vault.
func (v *Vault) areg(r int) []uint32 {
	n := len(v.peList)
	return v.arf[r*n : (r+1)*n : (r+1)*n]
}

// vec returns vault-wide PE p's vector within the register lanes d.
func vec(d []uint32, p int) *engine.Vector { return (*engine.Vector)(d[p*isa.VecLanes:]) }

// addrRegs returns the AddrRF register an indirect address field names,
// on every PE, or nil for a direct field; effAddr resolves the field for
// one PE against it.
func (v *Vault) addrRegs(field uint32, indirect bool) []uint32 {
	if !indirect {
		return nil
	}
	return v.areg(int(field))
}

func effAddr(field uint32, regs []uint32, p int) uint32 {
	if regs == nil {
		return field
	}
	return regs[p]
}

// resetRegs zeroes both register files and seeds A0-A3 of every PE
// with its identifiers (paper Sec. IV-E).
func (v *Vault) resetRegs() {
	clear(v.drf)
	clear(v.arf)
	for p := range v.peList {
		v.areg(isa.ARFPeID)[p] = uint32(p % v.Cfg.PEsPerPG)
		v.areg(isa.ARFPgID)[p] = uint32(p / v.Cfg.PEsPerPG)
		v.areg(isa.ARFVaultID)[p] = uint32(v.ID)
		v.areg(isa.ARFChipID)[p] = uint32(v.CubeID)
	}
}

// FoldDRAMStats snapshots the per-PG memory controller counters into
// the vault stats. Controllers count from the run's start, like the
// vault, so this assignment is idempotent.
func (v *Vault) FoldDRAMStats() {
	var d dram.Stats
	for _, pg := range v.PGs {
		s := pg.Ctrl.Stats
		d.Reads += s.Reads
		d.Writes += s.Writes
		d.Activates += s.Activates
		d.Precharges += s.Precharges
		d.Refreshes += s.Refreshes
		d.RowHits += s.RowHits
		d.RowMisses += s.RowMisses
		d.QueueFullStalls += s.QueueFullStalls
		d.BusyCycles += s.BusyCycles
		d.ECCCorrected += s.ECCCorrected
		d.ECCUncorrected += s.ECCUncorrected
	}
	v.Stats.DRAM = d
}

// SetFaultPlan attaches a fault-injection plan (nil detaches) and
// resets the vault's fault event counters.
func (v *Vault) SetFaultPlan(p *fault.Plan) {
	v.fp = p
	v.faultN, v.execN = 0, 0
	v.execSite = 0
	v.bankSites = nil
	if p == nil {
		return
	}
	v.execSite = fault.Site(fault.DomExec, v.CubeID, v.ID)
	v.bankSites = make([][]uint64, len(v.PGs))
	for pgID := range v.PGs {
		sites := make([]uint64, v.Cfg.PEsPerPG)
		for b := range sites {
			sites[b] = fault.Site(fault.DomBank, v.CubeID, v.ID, pgID, b)
		}
		v.bankSites[pgID] = sites
	}
}

// Load installs a finalized program and starts a run from the state of
// a vault fresh out of New (see rewind): every run is one offload to a
// fresh accelerator, so its timing and Stats depend on its own inputs
// alone, whatever the vault ran before.
func (v *Vault) Load(p *isa.Program) error {
	if err := ValidateForLoad(v.Cfg, p); err != nil {
		return err
	}
	v.rewind()
	v.prog = p
	v.done = false
	return nil
}

// Done reports whether the loaded program ran to completion.
func (v *Vault) Done() bool { return v.done }

// Now returns the vault clock in cycles.
func (v *Vault) Now() int64 { return v.now }

// AlignTo advances the vault clock to t cycles (a barrier release),
// charging the wait to sync stall time. The machine calls it on every
// phase participant after a barrier; a t at or before the current clock
// is a no-op.
func (v *Vault) AlignTo(t int64) {
	v.advanceTo(t, sim.StallSync)
}

// InterruptEvery is the instruction interval at which an armed vault
// polls its interrupt hook inside a phase: small enough that even a
// tight two-instruction spin loop is interruptible within microseconds
// of wall clock, large enough that the poll cost vanishes against the
// issue loop.
const InterruptEvery = 1024

// BeginRun arms run control for one machine run: the budget (zero =
// unlimited) and execution mode in opts, and an optional interrupt
// hook polled every InterruptEvery issued instructions. MaxCycles
// bounds the vault clock, which Load starts at 0 — or, in
// FunctionalMode, the run's issued-instruction count. The machine
// calls this after Load (or after restoring a checkpointed run) and
// disarms with EndRun.
func (v *Vault) BeginRun(opts sim.RunOptions, interrupt func() error) {
	v.budget = opts
	v.interrupt = interrupt
	v.phaseSteps = 0
	v.sinceCheck = 0
	v.funcMode = opts.Mode == sim.FunctionalMode
	v.limited = opts.Enabled() || interrupt != nil
}

// EndRun disarms run control.
func (v *Vault) EndRun() {
	v.budget = sim.RunOptions{}
	v.interrupt = nil
	v.limited = false
	v.funcMode = false
}

// checkRunControl enforces the armed budgets and polls the interrupt
// hook. Called once per issue-loop iteration when limited, in both
// modes. A functional run has no clock to measure MaxCycles against,
// so there the cycle budget bounds the issued-instruction count
// instead (every instruction costs at least one cycle, so a program
// that exceeds N instructions would certainly have exceeded N cycles —
// the bound is conservative, never late). MaxPhaseSteps counts loop
// iterations in both modes, so it trips at the identical pc with the
// identical message; the interrupt hook is polled on the same
// InterruptEvery cadence.
func (v *Vault) checkRunControl() error {
	v.phaseSteps++
	if b := v.budget.MaxPhaseSteps; b > 0 && v.phaseSteps > b {
		return v.halt("%w: %d instructions in one phase without sync (budget %d)", sim.ErrCycleBudget, v.phaseSteps-1, b)
	}
	spent, unit := v.now, "cycles"
	if v.funcMode {
		spent, unit = v.Stats.Issued, "instructions"
	}
	if b := v.budget.MaxCycles; b > 0 && spent >= b {
		return v.halt("%w: %d %s into the run (budget %d)", sim.ErrCycleBudget, spent, unit, b)
	}
	if v.interrupt != nil {
		if v.sinceCheck++; v.sinceCheck >= InterruptEvery {
			v.sinceCheck = 0
			if err := v.interrupt(); err != nil {
				return v.halt("%w", err)
			}
		}
	}
	return nil
}

// halt builds the error that stops the run at the current pc and, in
// cycle mode, records the clock in Stats.
func (v *Vault) halt(format string, args ...any) error {
	if !v.funcMode {
		v.Stats.Cycles = v.now
	}
	return fmt.Errorf("vault %d/%d: pc=%d: "+format, append([]any{v.CubeID, v.ID, v.pc}, args...)...)
}

// Abort abandons the in-flight run, unloads the program and rewinds
// the vault to the state of one fresh out of New (see rewind), so it
// is immediately reusable.
func (v *Vault) Abort() {
	v.rewind()
	v.prog = nil
	v.done = true
	v.EndRun()
}

// rewind returns the vault to the state New builds, apart from what
// outlives a run: clock and TSV timeline at 0, I$ cold, issued queue
// and pending req responses empty, every PG controller Reset (its
// Stats included), vault Stats zeroed, CRF and DataRF zeroed and
// AddrRF zeroed except the A0-A3 identifier registers. Bank, PGSM and
// VSM contents, the fault decision streams and the skipped-cycle
// tally survive. Host loading writes only memories, so nothing a run reads
// from registers can come from an earlier run.
func (v *Vault) rewind() {
	v.pc = 0
	v.inflight = v.inflight[:0]
	clear(v.vsmReady)
	v.now = 0
	v.tsvFree = 0
	for i := range v.icache {
		v.icache[i] = -1
	}
	v.Stats = sim.Stats{}
	clear(v.CRF)
	v.resetRegs()
	for _, pg := range v.PGs {
		pg.Ctrl.Reset()
	}
}

// RunPhase executes instructions until the program ends (done=true) or a
// sync instruction retires (done=false; the machine aligns vaults and
// calls RunPhase again). FunctionalMode phases run through the
// functional interpreter (functional.go), cycle-mode phases through the
// issue loop.
func (v *Vault) RunPhase() (bool, error) {
	if v.prog == nil {
		return true, fmt.Errorf("vault: no program loaded")
	}
	v.phaseSteps = 0
	if v.fp.ExecEnabled() {
		// Transient execution fault: one roll per phase, indexed by the
		// vault's own phase counter so the decision is schedule-free.
		n := v.execN
		v.execN++
		if v.fp.ExecFault(v.execSite, n) {
			v.Stats.Cycles = v.now
			return false, fmt.Errorf("vault %d/%d: phase roll %d: %w", v.CubeID, v.ID, n, fault.ErrTransient)
		}
	}
	if v.funcMode {
		return v.runPhaseFunctional()
	}
	return v.runPhaseCycle()
}

// runPhaseCycle is the cycle-accurate issue loop.
func (v *Vault) runPhaseCycle() (bool, error) {
	for {
		if v.pc >= len(v.prog.Ins) {
			v.drain()
			v.done = true
			v.Stats.Cycles = v.now
			return true, nil
		}
		if v.limited {
			if err := v.checkRunControl(); err != nil {
				return false, err
			}
		}
		in := &v.prog.Ins[v.pc]
		if in.Op == isa.OpSync {
			v.drain()
			v.Stats.Issued++
			v.Stats.InstByCategory[isa.CatSync]++
			v.Stats.Syncs++
			v.pc++
			v.now++
			v.Stats.Cycles = v.now
			return false, nil
		}
		if err := v.issue(in); err != nil {
			return false, fmt.Errorf("vault %d/%d: pc=%d %s: %w", v.CubeID, v.ID, v.pc, in.Op, err)
		}
	}
}

// drain waits for the issued queue to empty and all remote responses to
// land, charging the wait to sync stall time.
func (v *Vault) drain() {
	t := v.now
	for _, e := range v.inflight {
		if c := v.resolve(e); c > t {
			t = c
		}
		v.freeEntry(e)
	}
	v.inflight = v.inflight[:0]
	if len(v.vsmReady) > 0 {
		for addr, r := range v.vsmReady {
			if r > t {
				t = r
			}
			delete(v.vsmReady, addr) // consumed by the barrier
		}
	}
	v.advanceTo(t, sim.StallSync)
}

// resolve returns the completion time of an entry, scheduling any
// pending DRAM requests it owns.
func (v *Vault) resolve(e *entry) int64 {
	if len(e.reqs) == 0 {
		return e.completes
	}
	// Drain the involved controllers' queues deterministically.
	for _, pg := range v.PGs {
		if pg.Ctrl.QueueLen() > 0 {
			pg.Ctrl.AdvanceTo(math.MaxInt64 / 2)
		}
	}
	last := int64(0)
	for _, r := range e.reqs {
		if !r.Done {
			panic("vault: request still pending after controller drain")
		}
		done := r.Finish
		if e.usesTSV {
			// PonB: every 128-bit beat crosses the shared TSV bus.
			beat := done + int64(v.Cfg.TPEBus)
			if beat < v.tsvFree {
				beat = v.tsvFree
			}
			v.tsvFree = beat + int64(v.Cfg.TTSV)
			v.Stats.TSVBeats++
			done = beat + int64(v.Cfg.TTSV)
		}
		done += e.extra
		if done > last {
			last = done
		}
	}
	for _, r := range e.reqs {
		v.reqPool = append(v.reqPool, r) // dead: Finish consumed above
	}
	e.reqs = e.reqs[:0]
	if last > e.completes {
		e.completes = last
	}
	return e.completes
}

// retire drops finished entries from the issued queue, recycling them.
func (v *Vault) retire() {
	dst := v.inflight[:0]
	for _, e := range v.inflight {
		if len(e.reqs) == 0 && e.completes <= v.now {
			v.freeEntry(e)
			continue
		}
		dst = append(dst, e)
	}
	v.inflight = dst
}

// waitOldest advances the clock to the earliest completion among the
// in-flight instructions, charging the delta to reason.
func (v *Vault) waitOldest(reason sim.StallReason) {
	best := int64(math.MaxInt64)
	for _, e := range v.inflight {
		if c := v.resolve(e); c < best {
			best = c
		}
	}
	if best > v.now {
		v.advanceTo(best, reason)
	} else {
		v.now++ // defensive: guarantee progress
	}
	v.retire()
}

// conflictsWith reports whether issuing an instruction with registers
// r against in-flight entry e creates a RAW, WAR or WAW hazard.
func conflictsWith(e *entry, r *isa.Regs) bool {
	if e.regs.HasDef {
		d := e.regs.Def
		for _, u := range r.Use[:r.NUse] { // RAW
			if u == d {
				return true
			}
		}
		if r.HasDef && r.Def == d { // WAW
			return true
		}
	}
	if r.HasDef {
		for _, u := range e.regs.Use[:e.regs.NUse] { // WAR
			if u == r.Def {
				return true
			}
		}
	}
	return false
}

// issue executes one instruction: hazard and queue-capacity stalls, the
// architectural effect through the functional executor (execFunc, the
// same code FunctionalMode runs), then a timing-only pass that
// schedules completion. One issue consumes one cycle.
func (v *Vault) issue(in *isa.Instruction) error {
	issuePC := v.pc
	issueStart := v.now
	var stallSnap [sim.NumStallReasons]int64
	if v.tracer != nil {
		stallSnap = v.Stats.StallCycles
		v.ffIssue = 0
		defer func() {
			var reason sim.StallReason
			var best int64
			for r := sim.StallReason(0); r < sim.NumStallReasons; r++ {
				if d := v.Stats.StallCycles[r] - stallSnap[r]; d > best {
					best, reason = d, r
				}
			}
			stall := v.now - issueStart - 1
			if stall < 0 {
				stall = 0
			}
			v.tracer.record(TraceEntry{
				PC: issuePC, Op: in.Op,
				Issue: v.now, Stall: stall, Reason: reason,
				FastForwarded: v.ffIssue,
			})
		}()
	}
	v.fetch(issuePC)
	v.retire()
	// Issued queue capacity (Table III: 64 entries).
	for len(v.inflight) >= v.Cfg.InstQueue {
		v.waitOldest(sim.StallQueueFull)
	}
	regs := in.Regs()
	// Issue-time dependency check against the Issued Inst Queue: stall
	// with pipeline bubbles until the conflicting instructions retire.
	wait := int64(-1)
	for _, e := range v.inflight {
		if conflictsWith(e, &regs) {
			if c := v.resolve(e); c > wait {
				wait = c
			}
		}
	}
	if wait >= 0 {
		v.advanceTo(wait, sim.StallData)
		v.retire()
	}

	v.Stats.Issued++
	v.Stats.InstByCategory[isa.CategoryOf(in.Op)]++

	// A taken jump to pc+1 is indistinguishable from a fall-through by
	// the pc alone, so the branch outcome is read before the jump runs.
	taken := in.Op == isa.OpJump || in.Op == isa.OpCJump && v.CRF[in.Cond] != 0
	if err := v.execFunc(in); err != nil {
		return err
	}

	// Timing pass. Data ops never write the AddrRF, so effective
	// addresses read after the architectural effect are exact.
	mask := in.SimbMask
	nPE := v.Cfg.PEsPerVault()
	// Masked PEs within the vault (1<<64 wraps to 0, so a 64-PE vault
	// still yields the all-ones range mask).
	n := int64(bits.OnesCount64(mask & (uint64(1)<<uint(nPE) - 1)))
	completes := v.now + 1 // default single-cycle core-side op
	var pend *entry

	switch in.Op {
	case isa.OpComp:
		v.Stats.SIMDOps += n
		v.Stats.DataRFAcc += 3 * n
		if in.ALU.ReadsDst() {
			v.Stats.DataRFAcc += n
		}
		completes = v.now + int64(v.Cfg.LatencyOf(sim.ClassOf(in.ALU)))

	case isa.OpCalcARF:
		v.Stats.IntALUOps += n
		v.Stats.AddrRFAcc += 3 * n
		completes = v.now + int64(v.Cfg.LatencyOf(sim.ClassOf(in.ALU)))

	case isa.OpLdRF, isa.OpStRF, isa.OpLdPGSM, isa.OpStPGSM:
		pend = v.issueBank(in, mask, nPE, n)

	case isa.OpRdPGSM, isa.OpWrPGSM:
		v.Stats.PGSMAcc += n
		v.Stats.DataRFAcc += n
		completes = v.now + int64(v.Cfg.TPGSM+v.Cfg.TDataRF)

	case isa.OpRdVSM, isa.OpWrVSM:
		last := v.now + 1
		ar := v.addrRegs(in.Addr, in.Indirect)
		for i := 0; i < nPE; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			start := v.now + 1
			// A read of data a req is fetching waits for its arrival.
			if in.Op == isa.OpRdVSM {
				if r, ok := v.vsmReady[effAddr(in.Addr, ar, i)]; ok && r > start {
					start = r
				}
			}
			beat := max(start, v.tsvFree)
			v.tsvFree = beat + int64(v.Cfg.TTSV)
			last = max(last, beat+int64(v.Cfg.TTSV+v.Cfg.TVSM+v.Cfg.TDataRF))
		}
		v.Stats.VSMAcc += n
		v.Stats.TSVBeats += n
		v.Stats.DataRFAcc += n
		completes = last

	case isa.OpMovDRF, isa.OpMovARF:
		v.Stats.AddrRFAcc += n
		v.Stats.DataRFAcc += n
		completes = v.now + int64(v.Cfg.TAddrRF+v.Cfg.TDataRF)

	case isa.OpReset:
		v.Stats.DataRFAcc += n
		completes = v.now + int64(v.Cfg.TDataRF)

	case isa.OpSetiVSM:
		v.Stats.VSMAcc++
		completes = v.now + int64(v.Cfg.TVSM)

	case isa.OpReq:
		arrive := v.remote.RemoteRoundTrip(v.now+1, v.CubeID, v.ID, in.DstChip, in.DstVault)
		if cur, ok := v.vsmReady[in.Addr2]; !ok || arrive > cur {
			v.vsmReady[in.Addr2] = arrive
		}
		v.Stats.RemoteReqs++
		v.Stats.VSMAcc++

	case isa.OpJump, isa.OpCJump:
		if taken {
			v.now++
			v.advanceTo(v.now+int64(v.Cfg.BranchPenalty), sim.StallBranch)
			return nil
		}
	}

	// Multi-cycle instructions occupy the issued queue until they
	// complete; bank instructions until their DRAM requests finish.
	if pend != nil {
		pend.regs = regs
		v.inflight = append(v.inflight, pend)
	} else if completes > v.now+1 {
		e := v.newEntry()
		e.regs, e.completes = regs, completes
		v.inflight = append(v.inflight, e)
	}
	v.now++
	return nil
}

// issueBank schedules a bank-accessing instruction whose data effect
// execFunc has already applied: one DRAM request per masked PE per
// 128-bit column its span (bankSpan) touches, with back-pressure on the
// PG request queues. n is the number of masked PEs.
func (v *Vault) issueBank(in *isa.Instruction, mask uint64, nPE int, n int64) *entry {
	e := v.newEntry()
	e.extra, e.usesTSV, e.completes = int64(v.Cfg.TPEBus), v.Cfg.PonB, v.now+1
	switch in.Op {
	case isa.OpLdRF, isa.OpStRF:
		e.extra += int64(v.Cfg.TDataRF)
		v.Stats.DataRFAcc += n
	default:
		e.extra += int64(v.Cfg.TPGSM)
		v.Stats.PGSMAcc += n
	}
	write := in.Op.IsBankStore()
	ar := v.addrRegs(in.Addr, in.Indirect)
	for i := 0; i < nPE; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		pg := v.peList[i].pg
		lo, hi := bankSpan(in, effAddr(in.Addr, ar, i))
		// Requests that completed by now free their queue slots before
		// back-pressure is assessed.
		pg.Ctrl.AdvanceTo(v.now)
		// One column request per 128-bit column the span touches: an
		// unaligned vector access costs two column accesses.
		for col := lo &^ (dram.AccessBytes - 1); col < hi; col += dram.AccessBytes {
			req := v.newReq(i%v.Cfg.PEsPerPG, col, write)
			// DRAM request queue back-pressure stalls the pipeline
			// (paper Sec. V-C, memory order enforcement rationale).
			for !pg.Ctrl.Enqueue(v.now, req) {
				next := pg.Ctrl.NextEvent(v.now)
				if next <= v.now {
					next = v.now + 1
				}
				v.advanceTo(next, sim.StallDRAMQueue)
				pg.Ctrl.AdvanceTo(v.now)
			}
			e.reqs = append(e.reqs, req)
			v.Stats.PEBusBeats++
		}
	}
	if len(e.reqs) == 0 {
		// Empty mask: nothing to wait for.
		v.freeEntry(e)
		return nil
	}
	return e
}

// bankSpan returns the bank bytes [lo, hi) a bank instruction touches on
// a PE whose bank address is addr: the lanes its vector mask selects for
// ld_rf and st_rf, one 128-bit column beat for ld_pgsm and st_pgsm. An RF
// transfer whose mask selects no lane touches nothing at any address:
// its span is [0, 0), which holds no column.
func bankSpan(in *isa.Instruction, addr uint32) (lo, hi uint32) {
	if in.Op != isa.OpLdRF && in.Op != isa.OpStRF {
		return addr, addr + dram.AccessBytes
	}
	vm := in.VecMask & isa.VecMaskAll
	if vm == 0 {
		return 0, 0
	}
	return addr + 4*uint32(bits.TrailingZeros8(vm)), addr + 4*uint32(bits.Len8(vm))
}

// injectReadFaults rolls the fault plan once per 128-bit column of PE
// i's load span at bankAddr (bankSpan) and applies each SECDED outcome:
// a single-bit event is corrected (counter only, data intact); a
// multi-bit event is detected-uncorrectable and corrupts the read
// *destination* — the lane of dst (an ld_rf's destination vector in the
// register slab) or the PGSM byte at pgsmAddr that consumed the flipped
// bit. The bank backing store is never mutated: other vaults may be
// snapshot-reading it concurrently, and in-place corruption would make
// results depend on the phase schedule.
func (v *Vault) injectReadFaults(in *isa.Instruction, i int, bankAddr uint32, dst *engine.Vector, pgsmAddr uint32) {
	pg, bank := v.peList[i].pg, i%v.Cfg.PEsPerPG
	lo, hi := bankSpan(in, bankAddr)
	for col := lo &^ (dram.AccessBytes - 1); col < hi; col += dram.AccessBytes {
		n := v.faultN
		v.faultN++
		bf := v.fp.BankRead(v.bankSites[pg.ID][bank], n)
		if !bf.Injected {
			continue
		}
		pg.Ctrl.NoteECC(bank, bf.Corrected)
		if bf.Corrected {
			continue
		}
		for _, bit := range bf.Bits {
			// Byte offset of the flipped bit relative to the access origin.
			off := int64(col) + int64(bit/8) - int64(bankAddr)
			if off < 0 || off >= dram.AccessBytes {
				continue // column byte outside the consumed span
			}
			switch in.Op {
			case isa.OpLdRF:
				lane := int(off / 4)
				if in.VecMask&(1<<uint(lane)) == 0 {
					continue // unselected lane: the bits never reach the RF
				}
				dst[lane] ^= 1 << (uint(off%4)*8 + uint(bit%8))
			case isa.OpLdPGSM:
				// DMABankToPGSM validated [pgsmAddr, pgsmAddr+16) above,
				// so the flip cannot go out of bounds.
				_ = pg.FlipPGSMBit(pgsmAddr+uint32(off), uint(bit%8))
			}
		}
	}
}

func putU32(b []byte, addr uint32, v uint32) {
	b[addr] = byte(v)
	b[addr+1] = byte(v >> 8)
	b[addr+2] = byte(v >> 16)
	b[addr+3] = byte(v >> 24)
}

func getU32(b []byte, addr uint32) uint32 {
	return uint32(b[addr]) | uint32(b[addr+1])<<8 | uint32(b[addr+2])<<16 | uint32(b[addr+3])<<24
}

func copyVSMToVector(vsm []byte, addr uint32, v *engine.Vector, vmask uint8) {
	for l := 0; l < isa.VecLanes; l++ {
		if vmask&(1<<uint(l)) == 0 {
			continue
		}
		v[l] = getU32(vsm, addr+uint32(4*l))
	}
}

func copyVectorToVSM(v *engine.Vector, vsm []byte, addr uint32, vmask uint8) {
	for l := 0; l < isa.VecLanes; l++ {
		if vmask&(1<<uint(l)) == 0 {
			continue
		}
		putU32(vsm, addr+uint32(4*l), v[l])
	}
}

// highLane returns the highest lane index selected by a vector mask
// (0 when the mask is empty).
func highLane(vmask uint8) int { return max(bits.Len8(vmask&isa.VecMaskAll)-1, 0) }
