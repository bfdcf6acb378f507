// Package cube assembles iPIM's full machine hierarchy (paper
// Sec. IV-A): vaults on a per-cube 2D-mesh on-chip network, cubes on a
// 2D-mesh of off-chip SERDES links, the master–slave inter-vault
// synchronization protocol (Sec. IV-D), and the host-side data loading
// interface. It also provides the process-on-base-die (PonB) baseline
// by flipping the config's PonB switch (Sec. VII-C1).
//
// Between two master–slave barriers the vaults are architecturally
// independent, so Machine.Run executes each inter-barrier phase on a
// bounded pool of worker goroutines (one vault per task, up to the
// configured parallelism). The schedule is provably irrelevant to the
// result: every piece of state a vault touches during a phase is either
// owned by that vault, immutable, sharded per source vault (the
// NoC/SERDES link-contention state and counters), or read through a
// published snapshot (remote bank reads). Serial and parallel runs
// therefore produce bit-identical sim.Stats — pinned by the determinism
// tests at the repository root.
package cube

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"ipim/internal/dram"
	"ipim/internal/fault"
	"ipim/internal/isa"
	"ipim/internal/noc"
	"ipim/internal/sim"
	"ipim/internal/vault"
)

// port is one vault's private interconnect shard: its view of link
// occupancy (and its share of traffic counters) on every mesh a packet
// from this vault can traverse — its own cube mesh, the SERDES mesh,
// and any destination cube's mesh. Sharding makes RemoteRoundTrip a
// pure function of the source vault's own history, independent of how
// vault goroutines interleave.
type port struct {
	mesh   []*noc.LinkState // indexed like Machine.meshes
	serdes *noc.LinkState
}

// Machine is a complete iPIM accelerator.
type Machine struct {
	Cfg sim.Config // the validated configuration the machine was built from

	// Vaults[cube][vault].
	Vaults [][]*vault.Vault

	meshes []*noc.Mesh // per-cube on-chip mesh
	serdes *noc.Mesh   // inter-cube SERDES mesh

	// ports[cube][vault] is the per-source-vault interconnect shard.
	ports [][]*port

	// remoteServiceLat is the remote-end bank service latency applied to
	// req round trips: tRCD + tCL + data + queueing margin.
	remoteServiceLat int64

	// parallelism caps the worker goroutines running vault phases
	// concurrently: 0 = GOMAXPROCS, 1 = serial. Set via SetParallelism.
	parallelism int

	// memo is the run-level timing memo (memo.go); memoOff disables it.
	// Set via SetTimingMemo; forced off when IPIM_NO_MEMO=1 is set in
	// the environment.
	memo    runMemo
	memoOff bool

	// fplan is the fault plan attached via SetFaultPlan (nil = none),
	// kept so checkpoints can serialize it.
	fplan *fault.Plan

	// run is the in-flight run's bookkeeping (see runSection), non-nil
	// only between BeginRun and EndRun; mid-run checkpoints read it.
	run *runSection

	// resume holds a restored checkpoint's in-progress run until
	// ResumeContext consumes it.
	resume *runSection
}

// New builds a machine for the configuration.
func New(cfg sim.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg}
	t := cfg.Timing
	m.remoteServiceLat = int64(t.TRCD + t.TCL + 1 + 8)
	mw, mh := meshDims(cfg.VaultsPerCube)
	sw, sh := meshDims(cfg.Cubes)
	m.serdes = noc.NewMesh(sw, sh, cfg.TSERDESNum, cfg.TSERDESDen, cfg.SERDESLinkBytesPerCycle)
	for c := 0; c < cfg.Cubes; c++ {
		m.meshes = append(m.meshes, noc.NewMesh(mw, mh, int64(cfg.TNoCHop), 1, cfg.NoCLinkBytesPerCycle))
	}
	m.Vaults, m.ports = m.newFabric()
	if os.Getenv("IPIM_NO_MEMO") == "1" {
		m.SetTimingMemo(false)
	}
	return m, nil
}

// newFabric builds a set of vaults, bound to m, and their per-source
// port shards on m's meshes, all as fresh as New leaves them. New
// installs one; Restore decodes a checkpoint into another and swaps it
// in.
func (m *Machine) newFabric() ([][]*vault.Vault, [][]*port) {
	var vaults [][]*vault.Vault
	var ports [][]*port
	for c := 0; c < m.Cfg.Cubes; c++ {
		var vs []*vault.Vault
		var ps []*port
		for vid := 0; vid < m.Cfg.VaultsPerCube; vid++ {
			vs = append(vs, vault.New(&m.Cfg, c, vid, m))
			p := &port{serdes: m.serdes.NewLinkState()}
			for _, mesh := range m.meshes {
				p.mesh = append(p.mesh, mesh.NewLinkState())
			}
			ps = append(ps, p)
		}
		vaults = append(vaults, vs)
		ports = append(ports, ps)
	}
	return vaults, ports
}

// SetTimingMemo enables (the default) or disables the run-level timing
// memo (see memo.go); disabling also flushes every record. Memoized and
// unmemoized cycle runs produce bit-identical sim.Stats and outputs
// (the differential tests at the repository root pin this); the switch
// exists as the reference semantics those tests compare against.
// IPIM_NO_MEMO=1 in the environment forces it off at construction. Not
// safe to call during an active Run.
func (m *Machine) SetTimingMemo(on bool) {
	m.memoOff = !on
	if !on {
		m.memo.flush()
	}
}

// TimingMemo reports whether the run-level timing memo is enabled.
func (m *Machine) TimingMemo() bool { return !m.memoOff }

// TimingMemoStats reports the timing memo's hit and miss counts over
// the machine's lifetime: of the runs eligible to consult it, those
// answered from a record and those simulated in full (host-side
// diagnostics, not part of sim.Stats).
func (m *Machine) TimingMemoStats() (hits, misses int64) {
	return m.memo.hits, m.memo.misses
}

// SetDRAMPolicy switches every per-PG memory controller to the given
// row-buffer and scheduling policies. Policies steer request timing
// only, never data (internal/dram is timing-only), so outputs are
// bit-identical across settings; the schedule auto-tuner and the
// serving daemon use this to evaluate and serve tuned DRAM policies on
// a pooled machine without rebuilding it. The timing memo keys each
// recorded run on its policies, so a swap keeps the records, and a
// swap back finds the runs recorded before. Not safe to call during
// an active Run — change policies only between runs.
func (m *Machine) SetDRAMPolicy(page dram.PagePolicy, sched dram.SchedPolicy) {
	for _, cube := range m.Vaults {
		for _, v := range cube {
			for _, pg := range v.PGs {
				pg.Ctrl.SetPolicies(page, sched)
			}
		}
	}
}

// FastForwardedCycles totals, over every vault, the idle cycles crossed
// in jumps without simulating them individually (simulated cycles,
// cumulative over the machine's lifetime). A run answered by the timing
// memo counts the cycles its recorded run skipped, so the total reads
// the same with the memo on or off. Diagnostic only — not part of
// sim.Stats, whose stall charge already covers these cycles.
func (m *Machine) FastForwardedCycles() int64 {
	ff := m.memo.ff
	for _, cube := range m.Vaults {
		for _, v := range cube {
			ff += v.FastForwardedCycles()
		}
	}
	return ff
}

// SetParallelism bounds the worker goroutines Run uses per barrier
// phase: 0 (the default) means GOMAXPROCS, 1 forces the serial
// schedule, n>1 caps the pool at n. Parallel and serial schedules
// produce bit-identical results; the knob exists for benchmarking and
// for capping the simulator's CPU footprint (e.g. one machine of many
// in a serving pool). Not safe to call during an active Run.
func (m *Machine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	m.parallelism = n
}

// Parallelism reports the configured worker bound (0 = GOMAXPROCS).
func (m *Machine) Parallelism() int { return m.parallelism }

// SetFaultPlan attaches a fault-injection plan to every vault and every
// per-source link shard (nil detaches). Decision sites are derived from
// stable component coordinates and event counters are owned per
// component, so the injected faults — like everything else the machine
// computes — are bit-identical across serial and parallel schedules.
// Attaching or detaching flushes the timing memo. Not safe to call
// during an active Run.
func (m *Machine) SetFaultPlan(p *fault.Plan) {
	m.fplan = p
	m.memo.flush()
	attachFaults(m.Vaults, m.ports, p)
}

// attachFaults attaches plan to every vault and per-source link shard
// of a fabric (nil detaches), resetting their decision streams.
func attachFaults(vaults [][]*vault.Vault, ports [][]*port, plan *fault.Plan) {
	for c := range vaults {
		for vid, v := range vaults[c] {
			v.SetFaultPlan(plan)
			p := ports[c][vid]
			for mi, st := range p.mesh {
				st.AttachFaults(plan, fault.Site(fault.DomLink, c, vid, mi))
			}
			p.serdes.AttachFaults(plan, fault.Site(fault.DomLink, c, vid, -1))
		}
	}
}

// phaseWorkers resolves the worker count for a phase over n active
// vaults.
func (m *Machine) phaseWorkers(n int) int {
	w := m.parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// meshDims picks near-square 2D mesh dimensions for n nodes.
func meshDims(n int) (w, h int) {
	w = 1
	for w*w < n {
		w++
	}
	for n%w != 0 {
		w++
	}
	return w, n / w
}

// Vault returns the vault at (cube, vault).
func (m *Machine) Vault(cube, vlt int) *vault.Vault { return m.Vaults[cube][vlt] }

// RemoteRead implements vault.Remote. It reads through the target
// bank's published snapshot (never growing the bank), so it is safe to
// call while the target vault executes on another goroutine; the SIMB
// memory model guarantees the addressed bytes were written before the
// last barrier, hence are identical in every snapshot any schedule can
// observe.
func (m *Machine) RemoteRead(chip, vlt, pg, pe int, addr uint32) ([]byte, error) {
	if chip < 0 || chip >= len(m.Vaults) || vlt < 0 || vlt >= len(m.Vaults[chip]) {
		return nil, fmt.Errorf("cube: remote read target chip=%d vault=%d out of range", chip, vlt)
	}
	v := m.Vaults[chip][vlt]
	if pg < 0 || pg >= len(v.PGs) || pe < 0 || pe >= m.Cfg.PEsPerPG {
		return nil, fmt.Errorf("cube: remote read target pg=%d pe=%d out of range", pg, pe)
	}
	return v.PE(pg, pe).SnapshotRead(addr, dram.AccessBytes)
}

// RemoteRoundTrip implements vault.Remote: request packet to the remote
// vault, bank service there, 16-byte response back, all over the mesh
// (and the SERDES links for cross-cube requests). Timing is computed
// against the source vault's private link shard, so it depends only on
// that vault's own traffic history.
func (m *Machine) RemoteRoundTrip(now int64, srcChip, srcVault, dstChip, dstVault int) int64 {
	const reqBytes = 16 // address + routing header
	p := m.ports[srcChip][srcVault]
	t := m.sendVaultToVault(p, now, srcChip, srcVault, dstChip, dstVault, reqBytes)
	t += m.remoteServiceLat
	return m.sendVaultToVault(p, t, dstChip, dstVault, srcChip, srcVault, dram.AccessBytes)
}

// sendVaultToVault models one direction of inter-vault traffic on the
// given source port.
func (m *Machine) sendVaultToVault(p *port, now int64, srcChip, srcVault, dstChip, dstVault int, bytes int) int64 {
	if srcChip == dstChip {
		return m.meshes[srcChip].SendOn(p.mesh[srcChip], now, srcVault, dstVault, bytes)
	}
	// Egress to the cube's SERDES port (vault 0 by convention), cross
	// the cube mesh, then ingress to the destination vault.
	t := m.meshes[srcChip].SendOn(p.mesh[srcChip], now, srcVault, 0, bytes)
	t = m.serdes.SendOn(p.serdes, t, srcChip, dstChip, bytes)
	return m.meshes[dstChip].SendOn(p.mesh[dstChip], t, 0, dstVault, bytes)
}

// barrierCost returns the master–slave sync overhead: every slave
// signals the master vault (vault 0 of cube 0), the master updates the
// global synchronization status vector, then broadcasts the
// proceed-phase message (paper Sec. IV-D). Cost is two worst-case
// traversals plus bookkeeping.
func (m *Machine) barrierCost() int64 {
	maxHops := 0
	mesh := m.meshes[0]
	for vid := 0; vid < m.Cfg.VaultsPerCube; vid++ {
		if h := mesh.HopCount(0, vid); h > maxHops {
			maxHops = h
		}
	}
	interCube := 0
	for c := 0; c < m.Cfg.Cubes; c++ {
		if h := m.serdes.HopCount(0, c); h > interCube {
			interCube = h
		}
	}
	oneWay := int64(maxHops*m.Cfg.TNoCHop) + (int64(interCube)*m.Cfg.TSERDESNum+m.Cfg.TSERDESDen-1)/m.Cfg.TSERDESDen
	const bookkeeping = 4
	return 2*oneWay + bookkeeping
}

// Run executes one program per vault (entries may repeat the same
// program; a nil entry idles that vault). Programs must be finalized.
// Vaults run phase by phase: every vault executes to its next sync,
// then the machine aligns clocks with the barrier cost and proceeds —
// exactly the lock-step phase semantics the sync instruction provides.
// Within a phase the active vaults run concurrently on up to
// phaseWorkers goroutines; results are schedule-independent (see the
// package comment). It returns aggregated statistics (Cycles = wall
// clock of the slowest vault). Every run starts from the state of a
// machine fresh out of New apart from memory contents (vault.Load), so
// its statistics depend on the programs and their inputs alone.
//
// Run is RunContext under a background context with zero options: an
// unbudgeted cycle-mode run.
func (m *Machine) Run(programs map[[2]int]*isa.Program) (sim.Stats, error) {
	return m.RunContext(context.Background(), programs, sim.RunOptions{})
}

// RunContext is Run with cooperative cancellation and the run options
// in opts: execution mode, budgets and checkpointing. The context is
// checked at every phase barrier and — through a per-vault hook polled
// every vault.InterruptEvery issued instructions — inside phases, so
// even a single never-syncing phase (a runaway backward branch) is
// interruptible within microseconds of wall clock. On cancellation it
// returns an error wrapping sim.ErrCancelled and the context's cause
// (so errors.Is against context.DeadlineExceeded / context.Canceled
// works too); on budget exhaustion (opts.MaxCycles or
// opts.MaxPhaseSteps), an error wrapping sim.ErrCycleBudget, at a
// deterministic point — a pure function of the budget and the
// programs, independent of the phase schedule or worker count. In both
// cases the machine has been Reset and is immediately reusable. A
// RunContext whose context never expires is bit-identical to Run with
// the same opts — the hooks are pure control, touching no timed state.
//
// An eligible cycle-mode run whose programs the timing memo has
// recorded (see memo.go) executes in FunctionalMode and returns the
// recorded Stats. Each active Vault.Stats then holds the functional
// replay's counts, not cycle-mode ones; no non-test code reads
// per-vault Stats after a machine run — the returned Stats are the
// run's account.
func (m *Machine) RunContext(ctx context.Context, programs map[[2]int]*isa.Program, opts sim.RunOptions) (sim.Stats, error) {
	// Fix the vault order up front: loading, stepping, error selection
	// and stats folding all walk vaults in ascending (cube, vault)
	// order, so nothing depends on Go's randomized map iteration.
	keys := make([][2]int, 0, len(programs))
	for key, p := range programs {
		if p != nil {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var active []*vault.Vault
	var progs []*isa.Program
	for _, key := range keys {
		v := m.Vaults[key[0]][key[1]]
		if err := v.Load(programs[key]); err != nil {
			return sim.Stats{}, fmt.Errorf("cube: vault %v: %w", key, err)
		}
		active = append(active, v)
		progs = append(progs, programs[key])
	}
	if len(active) == 0 {
		return sim.Stats{}, fmt.Errorf("cube: no programs to run")
	}
	// Load rewound every active vault; with the link shards rewound too,
	// a reused Machine reports exactly what a fresh one would.
	m.resetLinks()
	if m.memoEligible(active, opts) {
		return m.memoRun(ctx, keys, progs, active, opts)
	}
	return m.finishRun(ctx, keys, active, opts)
}

// makeInterrupt builds the per-vault cancellation hook for a context.
// The hook is shared by all vault goroutines — a context's Done channel
// is safe for concurrent polling — and is nil for non-cancellable
// contexts so the vaults skip the poll entirely.
func makeInterrupt(ctx context.Context) func() error {
	if ctx.Done() == nil {
		return nil
	}
	return func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", sim.ErrCancelled, context.Cause(ctx))
		default:
			return nil
		}
	}
}

// runProgress is the checkpoint pacing metric: the furthest active
// vault clock in cycle mode, or — since functional runs never advance
// clocks — the furthest issue count of the run.
func runProgress(active []*vault.Vault, functional bool) int64 {
	var p int64
	for _, v := range active {
		if functional {
			if v.Stats.Issued > p {
				p = v.Stats.Issued
			}
		} else if v.Now() > p {
			p = v.Now()
		}
	}
	return p
}

// finishRun arms run control on every active vault (loaded, or
// restored mid-run) and drives the run phase by phase to completion,
// aligning clocks at each barrier and taking periodic checkpoints there
// when opts arms a sink. It is the shared back half of RunContext,
// the timing memo and ResumeContext; the run bookkeeping it stashes on
// the machine is what a mid-run checkpoint serializes. On return the
// vaults are disarmed.
func (m *Machine) finishRun(ctx context.Context, keys [][2]int, active []*vault.Vault, opts sim.RunOptions) (sim.Stats, error) {
	interrupt := makeInterrupt(ctx)
	for _, v := range active {
		v.BeginRun(opts, interrupt)
	}
	m.run = &runSection{keys: keys, opts: opts}
	defer func() {
		m.run = nil
		for _, v := range active {
			v.EndRun()
		}
	}()

	functional := opts.Mode == sim.FunctionalMode
	workers := m.phaseWorkers(len(active))
	phased := make([]bool, len(active))
	ckptOn := opts.CheckpointSink != nil && opts.CheckpointEvery > 0
	lastCkpt := runProgress(active, functional)
	if ckptOn {
		// Run-start checkpoint: programs are loaded, inputs staged and
		// run control armed, but no phase has executed — the earliest
		// point a crash-recovery journal can resume from, and the only
		// checkpoint a single-phase (sync-free) program ever gets.
		if err := opts.CheckpointSink(m.sealCheckpoint()); err != nil {
			m.Reset()
			return sim.Stats{}, fmt.Errorf("cube: checkpoint sink: %w", err)
		}
	}
	for {
		// Barrier-level check: catches cancellation between phases even
		// if no vault issues another instruction.
		if err := ctx.Err(); err != nil {
			m.Reset()
			return sim.Stats{}, fmt.Errorf("cube: %w: %w", sim.ErrCancelled, context.Cause(ctx))
		}
		var err error
		if workers <= 1 {
			err = m.runPhaseSerial(active, phased)
		} else {
			err = m.runPhaseParallel(active, phased, workers)
		}
		if err != nil {
			if errors.Is(err, sim.ErrCancelled) || errors.Is(err, sim.ErrCycleBudget) {
				// An aborted run leaves vaults mid-phase with queued DRAM
				// traffic and drifted clocks; rewind everything so the
				// machine is reusable (documented state: see Reset).
				m.Reset()
				return sim.Stats{}, fmt.Errorf("cube: %w", err)
			}
			return sim.Stats{}, err
		}
		allDone := true
		anyPhase := false
		for i, v := range active {
			if phased[i] {
				anyPhase = true
			}
			if !v.Done() {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if anyPhase && !functional {
			// Barrier: align all participants to the slowest plus the
			// master-slave round trip. Functional runs skip it: no
			// clock advances, so there is nothing to align (and
			// aligning would charge sync stalls no one simulated).
			var t int64
			for _, v := range active {
				if v.Now() > t {
					t = v.Now()
				}
			}
			t += m.barrierCost()
			for _, v := range active {
				v.AlignTo(t)
			}
		}
		// Periodic checkpoint, at the barrier only: every vault has
		// drained (quiescent) and clocks are aligned, so the snapshot
		// needs no in-flight state. Pure control — it reads timed state
		// but never writes it, so a checkpointing run's stats are
		// bit-identical to a non-checkpointing one.
		if ckptOn {
			if p := runProgress(active, functional); p-lastCkpt >= opts.CheckpointEvery {
				lastCkpt = p
				if err := opts.CheckpointSink(m.sealCheckpoint()); err != nil {
					m.Reset()
					return sim.Stats{}, fmt.Errorf("cube: checkpoint sink: %w", err)
				}
			}
		}
	}
	return m.collectStats(active), nil
}

// runPhaseSerial steps every unfinished vault to its next sync on the
// calling goroutine. phased[i] records whether vault i stopped at a
// sync (as opposed to running to completion). Like the parallel
// schedule, every active vault runs the phase even after one errors —
// abandoning the loop early would leave later vaults' state (clocks,
// fault event counters) behind where a parallel run puts them, so a
// retry after a transient fault would diverge between schedules. The
// lowest-(cube,vault) error is returned, matching runPhaseParallel.
func (m *Machine) runPhaseSerial(active []*vault.Vault, phased []bool) error {
	var firstErr error
	for i, v := range active {
		phased[i] = false
		if v.Done() {
			continue
		}
		done, err := v.RunPhase()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		phased[i] = !done
	}
	return firstErr
}

// runPhaseParallel is runPhaseSerial on a bounded worker pool. Vault i
// only ever runs on one goroutine at a time, and the pool joins before
// returning, so each vault's state is handed between goroutines with
// proper happens-before edges. Errors are collected per vault and the
// lowest-(cube,vault) one is returned, matching what a serial schedule
// blames first.
func (m *Machine) runPhaseParallel(active []*vault.Vault, phased []bool, workers int) error {
	errs := make([]error, len(active))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				v := active[i]
				done, err := v.RunPhase()
				phased[i] = !done
				errs[i] = err
			}
		}()
	}
	for i, v := range active {
		phased[i] = false
		if v.Done() {
			continue
		}
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collectStats folds and sums the run's counters of the given vaults
// plus every port's NoC/SERDES link shards, walking vaults and port
// shards in ascending (cube, vault) order so the fold is a fixed
// reduction tree. Every one of them starts the run at zero (Load and
// resetLinks), so the sum is the run's Stats.
func (m *Machine) collectStats(active []*vault.Vault) sim.Stats {
	var total sim.Stats
	for _, v := range active {
		v.FoldDRAMStats()
		total.Add(&v.Stats)
	}
	for _, ps := range m.ports {
		for _, p := range ps {
			for _, st := range p.mesh {
				total.NoC.Packets += st.Stats.Packets
				total.NoC.Flits += st.Stats.Flits
				total.NoC.Hops += st.Stats.Hops
				total.NoC.LinkFaults += st.Stats.LinkFaults
				total.NoC.RetransmitFlits += st.Stats.RetransmitFlits
			}
			total.SerdesBeat += p.serdes.Stats.Flits
			total.NoC.LinkFaults += p.serdes.Stats.LinkFaults
			total.NoC.RetransmitFlits += p.serdes.Stats.RetransmitFlits
		}
	}
	return total
}

// Reset unloads every vault's program and rewinds the whole machine to
// the state of one fresh out of New (vault.Abort on every vault, and
// every interconnect shard's timeline and counters zeroed), flushing
// the timing memo. Attached fault plans and their per-site decision
// streams, SRAM/DRAM data contents, configuration (parallelism, the
// timing-memo switch, DRAM policies) and the memo and skipped-cycle
// tallies survive. Every run already starts fresh, so a completed run
// needs no Reset; RunContext calls it when a run is cancelled or
// exhausts its budget, and worker pools call it when recovering a
// machine from a panic.
func (m *Machine) Reset() {
	for _, cube := range m.Vaults {
		for _, v := range cube {
			v.Abort()
		}
	}
	m.resetLinks()
	m.memo.flush()
}

// resetLinks zeroes every port shard's link timeline and counters.
func (m *Machine) resetLinks() {
	for _, ps := range m.ports {
		for _, p := range ps {
			for _, st := range p.mesh {
				st.Reset()
			}
			p.serdes.Reset()
		}
	}
}

// RunSame loads the same program into every vault and runs the machine.
func (m *Machine) RunSame(p *isa.Program) (sim.Stats, error) {
	return m.RunSameContext(context.Background(), p, sim.RunOptions{})
}

// RunSameContext is RunSame with the cancellation and run-option
// semantics of RunContext.
func (m *Machine) RunSameContext(ctx context.Context, p *isa.Program, opts sim.RunOptions) (sim.Stats, error) {
	programs := map[[2]int]*isa.Program{}
	for c := range m.Vaults {
		for vid := range m.Vaults[c] {
			programs[[2]int{c, vid}] = p
		}
	}
	return m.RunContext(ctx, programs, opts)
}

// RunVault runs a program on a single vault (the representative-vault
// bench mode; see DESIGN.md §2).
func (m *Machine) RunVault(cubeID, vaultID int, p *isa.Program) (sim.Stats, error) {
	return m.RunVaultContext(context.Background(), cubeID, vaultID, p, sim.RunOptions{})
}

// RunVaultContext is RunVault with the cancellation and run-option
// semantics of RunContext.
func (m *Machine) RunVaultContext(ctx context.Context, cubeID, vaultID int, p *isa.Program, opts sim.RunOptions) (sim.Stats, error) {
	return m.RunContext(ctx, map[[2]int]*isa.Program{{cubeID, vaultID}: p}, opts)
}
