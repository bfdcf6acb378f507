package dram

// Checkpoint codec for the controller. A controller's architectural
// state at a phase barrier is exactly its canonical timing snapshot
// (CaptureTiming's equivalence proof: two controllers with equal
// canonical snapshots schedule any identical future request stream
// identically) plus the policies the snapshot is keyed under and the
// run's Stats. The request queue is empty at barriers by construction,
// so no in-flight requests are serialized; CaptureTiming/RestoreTiming
// both enforce that invariant.
//
// The decode path follows the repository-wide checkpoint discipline:
// DecodeCtrlCkpt parses and validates into a CtrlImage without touching
// any controller, and ApplyCtrlCkpt applies a validated image
// infallibly, so a corrupt checkpoint can never leave a half-restored
// controller.

import (
	"fmt"

	"ipim/internal/ckpt"
)

// CtrlImage is a decoded, validated controller checkpoint, ready to be
// applied with ApplyCtrlCkpt. It is produced only by DecodeCtrlCkpt.
type CtrlImage struct {
	snap  TimingSnapshot
	stats Stats
}

// EncodeCkpt appends the controller's checkpoint state to e, with all
// times rebased to base (the owning vault's clock at the barrier). The
// request queue must be empty; CaptureTiming panics otherwise.
func (c *Controller) EncodeCkpt(e *ckpt.Enc, base int64) {
	var s TimingSnapshot
	c.CaptureTiming(base, &s)
	e.U8(uint8(s.page))
	e.U8(uint8(s.sched))
	e.U32(uint32(len(s.banks)))
	for _, b := range s.banks {
		e.Int(b.openRow)
		e.I64(b.preReady)
		e.I64(b.actReady)
		e.I64(b.colReady)
	}
	e.I64s(s.actTimes)
	e.I64(s.lastAct)
	e.Bool(s.hadAct)
	e.I64s(s.lastActGroup)
	e.Bools(s.hadActGroup)
	e.Int(s.bypassed)
	e.I64(s.nextRefresh)
	e.I64(s.refUntil)

	st := c.Stats
	e.I64(st.Reads)
	e.I64(st.Writes)
	e.I64(st.Activates)
	e.I64(st.Precharges)
	e.I64(st.Refreshes)
	e.I64(st.RowHits)
	e.I64(st.RowMisses)
	e.I64(st.QueueFullStalls)
	e.I64(st.BusyCycles)
	e.I64(st.ECCCorrected)
	e.I64(st.ECCUncorrected)
}

// DecodeCtrlCkpt parses one controller checkpoint from d and validates
// it against a controller with nBanks banks. It touches no controller
// state; errors wrap ckpt.ErrCorrupt.
func DecodeCtrlCkpt(d *ckpt.Dec, nBanks int) (*CtrlImage, error) {
	img := &CtrlImage{}
	s := &img.snap
	s.page = PagePolicy(d.U8())
	s.sched = SchedPolicy(d.U8())
	nb := int(d.U32())
	if d.Err() == nil && nb != nBanks {
		return nil, fmt.Errorf("dram: checkpoint has %d banks, controller has %d: %w", nb, nBanks, ckpt.ErrCorrupt)
	}
	for i := 0; i < nb && d.Err() == nil; i++ {
		s.banks = append(s.banks, bankSnap{
			openRow:  d.Int(),
			preReady: d.I64(),
			actReady: d.I64(),
			colReady: d.I64(),
		})
	}
	s.actTimes = d.I64s()
	s.lastAct = d.I64()
	s.hadAct = d.Bool()
	s.lastActGroup = d.I64s()
	s.hadActGroup = d.Bools()
	s.bypassed = d.Int()
	s.nextRefresh = d.I64()
	s.refUntil = d.I64()

	img.stats = Stats{
		Reads:           d.I64(),
		Writes:          d.I64(),
		Activates:       d.I64(),
		Precharges:      d.I64(),
		Refreshes:       d.I64(),
		RowHits:         d.I64(),
		RowMisses:       d.I64(),
		QueueFullStalls: d.I64(),
		BusyCycles:      d.I64(),
		ECCCorrected:    d.I64(),
		ECCUncorrected:  d.I64(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	groups := (nBanks + 1) / 2
	if s.page > ClosePage || s.sched > FCFS {
		return nil, fmt.Errorf("dram: checkpoint has unknown policy (page=%d sched=%d): %w", s.page, s.sched, ckpt.ErrCorrupt)
	}
	if len(s.lastActGroup) != groups || len(s.hadActGroup) != groups {
		return nil, fmt.Errorf("dram: checkpoint has %d/%d ACT groups, controller has %d: %w",
			len(s.lastActGroup), len(s.hadActGroup), groups, ckpt.ErrCorrupt)
	}
	if len(s.actTimes) > 8 {
		return nil, fmt.Errorf("dram: checkpoint carries %d ACT timestamps (max 8): %w", len(s.actTimes), ckpt.ErrCorrupt)
	}
	return img, nil
}

// ApplyCtrlCkpt rewrites the controller's state from a validated image,
// rebasing snapshot times to base (the owning vault's restored clock —
// the same value the snapshot was captured against, so the round trip
// is exact). The request queue must be empty. Never fails: all
// validation happened in DecodeCtrlCkpt.
func (c *Controller) ApplyCtrlCkpt(img *CtrlImage, base int64) {
	c.SetPolicies(img.snap.page, img.snap.sched)
	c.RestoreTiming(&img.snap, base)
	c.Stats = img.stats
}
