package dram

import "fmt"

// Timing snapshots for controller checkpoints (ckpt.go). A
// TimingSnapshot is a *canonical* image of the controller's
// scheduling-relevant state relative to a base cycle: every absolute
// time is rebased to the given base, and values that can no longer
// influence any future command (they lose every max() they can ever
// enter against times >= base) are normalized away. Two controllers
// whose canonical snapshots at their respective clocks are equal will
// schedule any identical future request stream identically, command for
// command and cycle for cycle (relative to base) — so a checkpoint
// taken at a barrier and restored at the same clock resumes exactly
// the schedule the uninterrupted run follows.
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
//     capture equal.
//   - bypassed is live FR-FCFS starvation state and is kept verbatim.
//   - nextRefresh/refUntil are kept verbatim (relative, possibly
//     negative).
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
// to base into dst, reusing dst's slices when they have capacity. The
// request queue must be empty — a queued request carries absolute times
// the canonical form cannot represent — and the method panics
// otherwise, as checkpoints are taken only at phase barriers, where the
// vault has drained every controller.
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

// RestoreTiming rewrites the controller's timing state from a canonical
// snapshot rebased to base. The request queue must be empty (phase
// boundaries drain it); Stats are not part of timing state and are
// managed by the caller.
func (c *Controller) RestoreTiming(s *TimingSnapshot, base int64) {
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
	c.nextRefresh = s.nextRefresh + base
	c.refUntil = s.refUntil + base
}
