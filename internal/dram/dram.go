// Package dram models the DRAM banks and the lightweight in-DRAM memory
// controller that iPIM integrates into every process group (paper
// Sec. IV-E): a 16-entry memory request queue, DRAM command translation
// and issue logic respecting the bank timing constraints of Table III
// (tRCD, tCCD, tRTP, tRP, tRAS plus the power-limiting tRRDS/tRRDL/tFAW),
// an open-row register per bank, two page policies (open/close) and two
// scheduling policies (FCFS, FR-FCFS), and periodic refresh per
// tREFI/tRFC "similar to AxRAM".
//
// The model is timing-only: it decides *when* each 128-bit column access
// completes. Data movement is performed by the engine layer when the
// controller reports completion, keeping one source of truth for bytes.
package dram

import (
	"fmt"
	"math"
)

// PagePolicy selects what happens to the row buffer after an access.
type PagePolicy uint8

const (
	// OpenPage leaves the accessed row open (default, Table III).
	OpenPage PagePolicy = iota
	// ClosePage precharges immediately after every access.
	ClosePage
)

// String returns the policy's short name ("open" or "close").
func (p PagePolicy) String() string {
	if p == OpenPage {
		return "open"
	}
	return "close"
}

// SchedPolicy selects the request scheduling discipline.
type SchedPolicy uint8

const (
	// FRFCFS prefers row-buffer hits over older misses (default).
	FRFCFS SchedPolicy = iota
	// FCFS issues strictly in arrival order.
	FCFS
)

// String returns the policy's display name ("FR-FCFS" or "FCFS").
func (s SchedPolicy) String() string {
	if s == FRFCFS {
		return "FR-FCFS"
	}
	return "FCFS"
}

// Timing holds the DRAM timing parameters in cycles (1 cycle = 1 ns at
// the paper's 1 GHz clock). Defaults mirror Table III; tCL/tCWL and the
// refresh interval are HBM2-class values the paper's table omits but any
// executable model requires (documented in DESIGN.md).
type Timing struct {
	TRCD  int // ACT -> RD/WR
	TCCD  int // column-to-column (burst occupancy)
	TRTP  int // RD -> PRE
	TRP   int // PRE -> ACT
	TRAS  int // ACT -> PRE
	TRRDS int // ACT -> ACT, different bank, same die
	TRRDL int // ACT -> ACT, same bank group
	TFAW  int // four-activate window per die
	TCL   int // RD -> data
	TCWL  int // WR -> data
	TWR   int // end of write data -> PRE
	TREFI int // refresh interval
	TRFC  int // refresh cycle time
}

// DefaultTiming returns the Table III timing set.
func DefaultTiming() Timing {
	return Timing{
		TRCD: 14, TCCD: 2, TRTP: 4, TRP: 14, TRAS: 33,
		TRRDS: 4, TRRDL: 6, TFAW: 16,
		TCL: 14, TCWL: 12, TWR: 12,
		TREFI: 3900, TRFC: 350,
	}
}

// Geometry describes one bank.
type Geometry struct {
	BankBytes int // per-bank capacity (Table III: 16 MB)
	RowBytes  int // row buffer size
}

// DefaultGeometry returns a 16 MB bank with 2 KB rows.
func DefaultGeometry() Geometry {
	return Geometry{BankBytes: 16 << 20, RowBytes: 2 << 10}
}

// RowOf maps a byte address to its row index.
func (g Geometry) RowOf(addr uint32) int { return int(addr) / g.RowBytes }

// AccessBytes is the bank I/O width per column access: 128 bits.
const AccessBytes = 16

// NoEvent is the NextEvent sentinel for an idle controller: no queued
// request, so no future time at which its state changes on its own.
const NoEvent int64 = math.MaxInt64

// Request is one 128-bit column access. The engine allocates a Request
// (vaults recycle them through a free list), enqueues it, and polls
// Done/Finish after advancing the controller. All time fields are in
// DRAM cycles (1 cycle = 1 ns at the paper's 1 GHz clock). Enqueue
// reinitializes every scheduling field, so a recycled Request needs no
// explicit reset.
type Request struct {
	Bank int    // bank index within this controller (= PE index in PG)
	Addr uint32 // byte address within the bank
	// Write marks a column write (WR); false is a read (RD).
	Write bool

	Arrive int64 // time the request entered the queue
	// Done reports that the controller has issued the request; Finish
	// is valid from then on.
	Done   bool
	Finish int64 // data available (read) / write recoverable

	row int // Addr's row index, cached at Enqueue
}

// Stats counts controller activity for the energy model and Fig. 13
// utilization. The ECC counters are fed by the fault-injection layer
// (internal/fault) via NoteECC; without a fault plan they stay zero.
type Stats struct {
	// Reads counts column reads (RD) issued.
	Reads int64
	// Writes counts column writes (WR) issued.
	Writes int64
	// Activates counts row activations (ACT).
	Activates int64
	// Precharges counts precharges (PRE), explicit and auto.
	Precharges int64
	// Refreshes counts refresh operations (one per tREFI epoch crossed).
	Refreshes int64
	// RowHits counts requests served from the already-open row.
	RowHits int64
	// RowMisses counts requests that needed an ACT first.
	RowMisses int64
	// QueueFullStalls counts Enqueue calls refused by a full queue.
	QueueFullStalls int64
	BusyCycles      int64 // cycles with ≥1 request in flight
	ECCCorrected    int64 // single-bit read errors corrected by SECDED
	ECCUncorrected  int64 // multi-bit read errors detected, data corrupt
}

type bankState struct {
	openRow  int   // -1 when precharged
	preReady int64 // earliest next PRE
	actReady int64 // earliest next ACT (bank-local: tRP after PRE)
	colReady int64 // earliest next RD/WR (tRCD after ACT, tCCD after last col)
}

// Controller is the in-DRAM memory controller of one process group,
// serving the banks of its PEs.
type Controller struct {
	timing Timing
	geom   Geometry
	page   PagePolicy
	sched  SchedPolicy
	qCap   int

	banks    []bankState
	queue    []*Request
	actTimes []int64 // the fawACTs most recent ACT times, oldest first
	// lastAct is the most recent ACT across banks (tRRDS); it is only
	// meaningful once hadAct is set. An explicit flag instead of a
	// time sentinel keeps the timing arithmetic free of values that
	// could overflow when mixed with large timing parameters.
	lastAct int64
	hadAct  bool
	// lastActGroup tracks the most recent ACT per bank group: activates
	// within the same group are spaced by the longer tRRDL (Table III).
	// Banks pair into groups of two. Valid only where hadActGroup is set.
	lastActGroup []int64
	hadActGroup  []bool

	nextRefresh int64
	refUntil    int64 // in-progress refresh blackout end

	// starvation bound for FR-FCFS: a miss older than this many issued
	// hits is prioritized (prevents unbounded bypassing).
	maxBypass int
	bypassed  int

	// Stats counts the controller's activity since it was built or
	// last Reset.
	Stats Stats
}

// fawACTs is the number of activates tFAW admits per window: a new
// ACT waits for the fawACTs-th most recent one plus tFAW.
const fawACTs = 4

// NewController builds a controller for nBanks banks. qCap is the
// request queue capacity (Table III: 16).
func NewController(nBanks, qCap int, t Timing, g Geometry, page PagePolicy, sched SchedPolicy) *Controller {
	if nBanks <= 0 || qCap <= 0 {
		panic(fmt.Sprintf("dram: invalid controller shape banks=%d qcap=%d", nBanks, qCap))
	}
	c := &Controller{
		timing: t, geom: g, page: page, sched: sched, qCap: qCap,
		banks:        make([]bankState, nBanks),
		nextRefresh:  int64(t.TREFI),
		maxBypass:    16,
		lastActGroup: make([]int64, (nBanks+1)/2),
		hadActGroup:  make([]bool, (nBanks+1)/2),
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c
}

// Reset returns the controller to its just-built state — queue empty,
// all banks precharged and immediately schedulable, the refresh epoch
// rewound, Stats zeroed — keeping only its policies. Every vault run
// starts with it, so a run's timing and counters depend on that run
// alone.
func (c *Controller) Reset() {
	for i := range c.banks {
		c.banks[i] = bankState{openRow: -1}
	}
	c.queue = c.queue[:0]
	c.actTimes = c.actTimes[:0]
	c.lastAct, c.hadAct = 0, false
	for i := range c.lastActGroup {
		c.lastActGroup[i] = 0
		c.hadActGroup[i] = false
	}
	c.nextRefresh = int64(c.timing.TREFI)
	c.refUntil = 0
	c.bypassed = 0
	c.Stats = Stats{}
}

// SetPolicies switches the row-buffer and scheduling policies. Only
// safe while the controller is quiescent (queue empty, between runs):
// the schedule auto-tuner and the serving daemon use it to evaluate and
// serve tuned DRAM policies on a pooled machine without rebuilding it.
// Policies steer timing only, never data, so outputs are unaffected.
func (c *Controller) SetPolicies(page PagePolicy, sched SchedPolicy) {
	c.page = page
	c.sched = sched
}

// Policies reports the current row-buffer and scheduling policies.
func (c *Controller) Policies() (PagePolicy, SchedPolicy) { return c.page, c.sched }

// QueueLen reports current queue occupancy.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Full reports whether the request queue has no free slot.
func (c *Controller) Full() bool { return len(c.queue) >= c.qCap }

// Enqueue adds a request at time now. It returns false (and counts a
// stall) when the queue is full.
func (c *Controller) Enqueue(now int64, r *Request) bool {
	if c.Full() {
		c.Stats.QueueFullStalls++
		return false
	}
	if r.Bank < 0 || r.Bank >= len(c.banks) {
		panic(fmt.Sprintf("dram: request for bank %d of %d", r.Bank, len(c.banks)))
	}
	if int(r.Addr)+AccessBytes > c.geom.BankBytes {
		panic(fmt.Sprintf("dram: address %#x beyond bank capacity %#x", r.Addr, c.geom.BankBytes))
	}
	r.Arrive = now
	r.Done = false
	r.row = c.geom.RowOf(r.Addr)
	c.queue = append(c.queue, r)
	return true
}

// NextEvent returns a future time (in DRAM cycles, strictly after now)
// at which the controller can make progress, or NoEvent when the queue
// is empty. The vault's queue back-pressure wait jumps to it. It
// accounts for PRE/ACT sequences, tFAW windows and the lazily applied
// refresh blackouts (a pending refresh is materialized by earliestIssue
// the moment a request would cross it, so an idle controller never
// needs waking just to refresh).
//
// It is not always the earliest such time: it times each request's
// command sequence from now, while pick times it from the request's
// arrival, so on a full FR-FCFS queue it can come back after the next
// issue. The wait then lasts longer than the queue is full.
func (c *Controller) NextEvent(now int64) int64 {
	if len(c.queue) == 0 {
		return NoEvent
	}
	best := NoEvent
	for _, r := range c.queue {
		if t := c.earliestIssue(r, now); t < best {
			best = t
		}
	}
	if best <= now {
		return now + 1
	}
	return best
}

// AdvanceTo processes the command schedule up to and including time t,
// completing requests whose data transfers finish by then. The engine
// must call this with non-decreasing t.
func (c *Controller) AdvanceTo(t int64) {
	for {
		if len(c.queue) == 0 {
			return
		}
		r, issueAt := c.pick(t)
		if r == nil || issueAt > t {
			return
		}
		c.issue(r, issueAt)
	}
}

// pick selects the next request per the scheduling policy and the time
// its column access can issue. Returns nil when nothing can issue by t.
func (c *Controller) pick(t int64) (*Request, int64) {
	if len(c.queue) == 0 {
		return nil, 0
	}
	if c.sched == FCFS {
		r := c.queue[0]
		return r, c.earliestIssue(r, r.Arrive)
	}
	// FR-FCFS: oldest row-hit first, unless the starvation bound is hit;
	// otherwise the oldest request. The bypass counter is maintained in
	// issue() (it counts actual bypassing issues, not speculative picks).
	oldest := c.queue[0]
	if c.bypassed >= c.maxBypass {
		return oldest, c.earliestIssue(oldest, oldest.Arrive)
	}
	for _, r := range c.queue {
		if c.banks[r.Bank].openRow == r.row {
			return r, c.earliestIssue(r, r.Arrive)
		}
	}
	return oldest, c.earliestIssue(oldest, oldest.Arrive)
}

// earliestIssue computes when the request's final column command (RD/WR)
// can issue, accounting for any needed PRE/ACT and refresh blackout.
func (c *Controller) earliestIssue(r *Request, now int64) int64 {
	b := &c.banks[r.Bank]
	row := r.row
	t := now
	if t < c.refUntil {
		t = c.refUntil
	}
	// Refresh epoch boundary: if the command sequence would cross the
	// next refresh time, it waits until after refresh. (The controller
	// refreshes eagerly at epoch boundaries.)
	if t >= c.nextRefresh {
		t = c.refreshAt(t)
	}
	if b.openRow == row {
		if t < b.colReady {
			t = b.colReady
		}
		return t
	}
	// Row miss: PRE (if a row is open) then ACT then column.
	if b.openRow != -1 {
		pre := t
		if pre < b.preReady {
			pre = b.preReady
		}
		t = pre + int64(c.timing.TRP)
	}
	act := t
	if act < b.actReady {
		act = b.actReady
	}
	if c.hadAct {
		if t := c.lastAct + int64(c.timing.TRRDS); act < t {
			act = t
		}
	}
	if c.hadActGroup[r.Bank/2] {
		if g := c.lastActGroup[r.Bank/2] + int64(c.timing.TRRDL); act < g {
			act = g // same bank group: longer ACT-to-ACT spacing
		}
	}
	if faw := c.fawReady(); act < faw {
		act = faw
	}
	col := act + int64(c.timing.TRCD)
	if col < b.colReady {
		col = b.colReady
	}
	return col
}

// fawReady returns the earliest time a new ACT satisfies tFAW.
func (c *Controller) fawReady() int64 {
	if len(c.actTimes) < fawACTs {
		return 0
	}
	return c.actTimes[0] + int64(c.timing.TFAW)
}

// refreshAt performs the pending refresh(es) ending at or after time t
// and returns the time commands may resume. A backlog of k epochs is
// settled in closed form, not one epoch at a time: refresh j starts at
// the later of its epoch and the end of refresh j-1 and lasts tRFC, so
// the last one ends at the latest of refUntil + k·tRFC and, over the
// epochs j < k, epoch_j + (k-j)·tRFC. That maximum sits at the last
// epoch when tREFI > tRFC and at the first otherwise.
func (c *Controller) refreshAt(t int64) int64 {
	if t < c.nextRefresh {
		return c.refUntil
	}
	refi, rfc := int64(c.timing.TREFI), int64(c.timing.TRFC)
	k := (t-c.nextRefresh)/refi + 1
	start := c.nextRefresh
	if refi > rfc {
		start += (k - 1) * (refi - rfc)
	}
	c.refUntil = max(c.refUntil, start) + k*rfc
	// All banks precharge for refresh.
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	c.nextRefresh += k * refi
	c.Stats.Refreshes += k
	return c.refUntil
}

// issue executes the command sequence for r with the final column
// command at issueAt, updating bank state, stats and the request.
func (c *Controller) issue(r *Request, issueAt int64) {
	if len(c.queue) > 0 && c.queue[0] == r {
		c.bypassed = 0
	} else {
		c.bypassed++
	}
	b := &c.banks[r.Bank]
	row := r.row
	if b.openRow == row {
		c.Stats.RowHits++
	} else {
		c.Stats.RowMisses++
		if b.openRow != -1 {
			c.Stats.Precharges++
		}
		// ACT happened tRCD before the column command.
		actAt := issueAt - int64(c.timing.TRCD)
		b.preReady = actAt + int64(c.timing.TRAS)
		c.lastAct = actAt
		c.hadAct = true
		c.lastActGroup[r.Bank/2] = actAt
		c.hadActGroup[r.Bank/2] = true
		if len(c.actTimes) == fawACTs {
			copy(c.actTimes, c.actTimes[1:])
			c.actTimes[fawACTs-1] = actAt
		} else {
			c.actTimes = append(c.actTimes, actAt)
		}
		c.Stats.Activates++
		b.openRow = row
	}
	b.colReady = issueAt + int64(c.timing.TCCD)
	if r.Write {
		c.Stats.Writes++
		r.Finish = issueAt + int64(c.timing.TCWL) + 1
		wrPre := r.Finish + int64(c.timing.TWR)
		if wrPre > b.preReady {
			b.preReady = wrPre
		}
	} else {
		c.Stats.Reads++
		r.Finish = issueAt + int64(c.timing.TCL) + 1
		rdPre := issueAt + int64(c.timing.TRTP)
		if rdPre > b.preReady {
			b.preReady = rdPre
		}
	}
	if c.page == ClosePage {
		// Auto-precharge as soon as legal.
		c.Stats.Precharges++
		b.actReady = b.preReady + int64(c.timing.TRP)
		b.openRow = -1
	}
	r.Done = true
	c.Stats.BusyCycles += r.Finish - r.Arrive
	// Remove from queue.
	for i, q := range c.queue {
		if q == r {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
}

// NoteECC records one injected ECC event on a bank read: corrected
// (single-bit, data intact) or uncorrected (multi-bit, data corrupt).
// Called by the fault-injection layer; the totals land in Stats.
func (c *Controller) NoteECC(bank int, corrected bool) {
	if bank < 0 || bank >= len(c.banks) {
		panic(fmt.Sprintf("dram: ECC event for bank %d of %d", bank, len(c.banks)))
	}
	if corrected {
		c.Stats.ECCCorrected++
	} else {
		c.Stats.ECCUncorrected++
	}
}
