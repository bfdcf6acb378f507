package dram

import "fmt"

// Timing snapshots for the vault-level block timing memoizer. A
// TimingSnapshot is a *canonical* image of the controller's
// scheduling-relevant state relative to a base cycle: every absolute
// time is rebased to the given base, and values that can no longer
// influence any future command (they lose every max() they can ever
// enter against times >= base) are normalized away. Two controllers
// whose canonical snapshots at their respective clocks are equal will
// schedule any identical future request stream identically, command for
// command and cycle for cycle (relative to base) — that equivalence is
// what lets the memoizer key phase timing on snapshots instead of
// re-simulating.
//
// Canonicalization rules, each justified by how the field is consumed:
//
//   - preReady/actReady/colReady enter only max() folds against times
//     derived from request arrival (>= base, since the queue is empty at
//     snapshot time and future requests arrive at or after base), so
//     values at or before base are floored to base (relative 0).
//   - actTimes feeds fawReady = actTimes[len-4] + tFAW. Entries whose
//     value+tFAW <= base can only produce a bound at or before base,
//     which every ACT candidate (>= base) already satisfies; dropping
//     them keeps index len-4 aligned between the two runs because the
//     index counts from the end. Only *leading* dead entries are
//     dropped (ACT times are not guaranteed monotonic across banks).
//   - lastAct/lastActGroup are dead once value+tRRDS (resp. tRRDL)
//     <= base, for the same max() reason; deadness clears the had*
//     flag so two controllers that differ only in ancient ACT history
//     compare equal.
//   - bypassed is live FR-FCFS starvation state and is kept verbatim.
//   - nextRefresh/refUntil are kept verbatim (relative, possibly
//     negative). They are deliberately NOT part of CoreEqual: the
//     memoizer applies a refresh-window rule of its own (see
//     internal/vault), because requiring exact refresh phase would kill
//     the hit rate for every block shorter than tREFI.
type TimingSnapshot struct {
	page  PagePolicy
	sched SchedPolicy

	banks        []bankSnap
	actTimes     []int64 // relative to base, leading dead entries dropped
	lastAct      int64   // relative; meaningful only when hadAct
	hadAct       bool
	lastActGroup []int64
	hadActGroup  []bool
	bypassed     int

	nextRefresh int64 // relative to base (negative = refresh backlog)
	refUntil    int64 // relative to base
}

// bankSnap is one bank's canonical timing state (times relative to the
// snapshot base, floored at 0).
type bankSnap struct {
	openRow  int
	preReady int64
	actReady int64
	colReady int64
}

// relFloor rebases t to base, flooring dead (<= base) values to 0.
func relFloor(t, base int64) int64 {
	if t <= base {
		return 0
	}
	return t - base
}

// CaptureTiming writes the controller's canonical timing state relative
// to base into dst, reusing dst's slices when they have capacity (the
// memoizer probes every phase; captures must not allocate in steady
// state). The request queue must be empty — a queued request carries
// absolute times the canonical form cannot represent — and the method
// panics otherwise, as the vault only snapshots at phase boundaries
// where it has drained every controller.
func (c *Controller) CaptureTiming(base int64, dst *TimingSnapshot) {
	if len(c.queue) != 0 {
		panic(fmt.Sprintf("dram: CaptureTiming with %d queued requests", len(c.queue)))
	}
	dst.page, dst.sched = c.page, c.sched
	dst.banks = dst.banks[:0]
	for i := range c.banks {
		b := &c.banks[i]
		dst.banks = append(dst.banks, bankSnap{
			openRow:  b.openRow,
			preReady: relFloor(b.preReady, base),
			actReady: relFloor(b.actReady, base),
			colReady: relFloor(b.colReady, base),
		})
	}
	dst.actTimes = dst.actTimes[:0]
	tfaw := int64(c.timing.TFAW)
	for _, t := range c.actTimes {
		if len(dst.actTimes) == 0 && t+tfaw <= base {
			continue // leading dead entry
		}
		dst.actTimes = append(dst.actTimes, t-base)
	}
	dst.hadAct = c.hadAct && c.lastAct+int64(c.timing.TRRDS) > base
	dst.lastAct = 0
	if dst.hadAct {
		dst.lastAct = c.lastAct - base
	}
	dst.lastActGroup = dst.lastActGroup[:0]
	dst.hadActGroup = dst.hadActGroup[:0]
	for g := range c.lastActGroup {
		had := c.hadActGroup[g] && c.lastActGroup[g]+int64(c.timing.TRRDL) > base
		rel := int64(0)
		if had {
			rel = c.lastActGroup[g] - base
		}
		dst.lastActGroup = append(dst.lastActGroup, rel)
		dst.hadActGroup = append(dst.hadActGroup, had)
	}
	dst.bypassed = c.bypassed
	dst.nextRefresh = c.nextRefresh - base
	dst.refUntil = c.refUntil - base
}

// Clone returns a deep copy of the snapshot (for storing in a memo
// block after a scratch capture).
func (s *TimingSnapshot) Clone() TimingSnapshot {
	out := *s
	out.banks = append([]bankSnap(nil), s.banks...)
	out.actTimes = append([]int64(nil), s.actTimes...)
	out.lastActGroup = append([]int64(nil), s.lastActGroup...)
	out.hadActGroup = append([]bool(nil), s.hadActGroup...)
	return out
}

// CoreEqual reports whether two canonical snapshots describe the same
// scheduling state *excluding* the refresh epoch (nextRefresh/refUntil),
// which the memoizer matches under its own windowing rule.
func (s *TimingSnapshot) CoreEqual(o *TimingSnapshot) bool {
	if s.page != o.page || s.sched != o.sched || s.bypassed != o.bypassed ||
		s.hadAct != o.hadAct || s.lastAct != o.lastAct ||
		len(s.banks) != len(o.banks) || len(s.actTimes) != len(o.actTimes) ||
		len(s.lastActGroup) != len(o.lastActGroup) {
		return false
	}
	for i := range s.banks {
		if s.banks[i] != o.banks[i] {
			return false
		}
	}
	for i := range s.actTimes {
		if s.actTimes[i] != o.actTimes[i] {
			return false
		}
	}
	for i := range s.lastActGroup {
		if s.lastActGroup[i] != o.lastActGroup[i] || s.hadActGroup[i] != o.hadActGroup[i] {
			return false
		}
	}
	return true
}

// RefreshRel returns the snapshot's refresh epoch relative to its base:
// the next refresh boundary and the end of any in-progress refresh
// blackout (values <= 0 are in the past).
func (s *TimingSnapshot) RefreshRel() (nextRefresh, refUntil int64) {
	return s.nextRefresh, s.refUntil
}

// RestoreTiming rewrites the controller's timing state from a canonical
// snapshot rebased to base. When refresh is false the controller's own
// refresh epoch (nextRefresh/refUntil) is left untouched — the
// memoizer's no-refresh-window rule guarantees the recorded block did
// not move it. The request queue must be empty (phase boundaries drain
// it); Stats are not part of timing state and are managed by the
// caller.
func (c *Controller) RestoreTiming(s *TimingSnapshot, base int64, refresh bool) {
	if len(c.queue) != 0 {
		panic(fmt.Sprintf("dram: RestoreTiming with %d queued requests", len(c.queue)))
	}
	for i := range c.banks {
		sn := s.banks[i]
		c.banks[i] = bankState{
			openRow:  sn.openRow,
			preReady: sn.preReady + base,
			actReady: sn.actReady + base,
			colReady: sn.colReady + base,
		}
	}
	c.queue = c.queue[:0]
	c.actTimes = c.actTimes[:0]
	for _, t := range s.actTimes {
		c.actTimes = append(c.actTimes, t+base)
	}
	c.hadAct = s.hadAct
	c.lastAct = 0
	if s.hadAct {
		c.lastAct = s.lastAct + base
	}
	for g := range c.lastActGroup {
		c.hadActGroup[g] = s.hadActGroup[g]
		c.lastActGroup[g] = 0
		if s.hadActGroup[g] {
			c.lastActGroup[g] = s.lastActGroup[g] + base
		}
	}
	c.bypassed = s.bypassed
	if refresh {
		c.nextRefresh = s.nextRefresh + base
		c.refUntil = s.refUntil + base
	}
}

// Add accumulates o into s field for field. The memoizer uses it to
// apply a recorded block's controller-counter delta on a cache hit.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Activates += o.Activates
	s.Precharges += o.Precharges
	s.Refreshes += o.Refreshes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.QueueFullStalls += o.QueueFullStalls
	s.BusyCycles += o.BusyCycles
	s.ECCCorrected += o.ECCCorrected
	s.ECCUncorrected += o.ECCUncorrected
}

// Delta returns s - o field for field (the counters one recorded block
// contributed between two snapshots of a controller's Stats).
func (s Stats) Delta(o Stats) Stats {
	s.Reads -= o.Reads
	s.Writes -= o.Writes
	s.Activates -= o.Activates
	s.Precharges -= o.Precharges
	s.Refreshes -= o.Refreshes
	s.RowHits -= o.RowHits
	s.RowMisses -= o.RowMisses
	s.QueueFullStalls -= o.QueueFullStalls
	s.BusyCycles -= o.BusyCycles
	s.ECCCorrected -= o.ECCCorrected
	s.ECCUncorrected -= o.ECCUncorrected
	return s
}
