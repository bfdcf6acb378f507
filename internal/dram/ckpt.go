package dram

// Checkpoint codec for the controller. Checkpoints are taken at phase
// barriers, where the owning vault has drained every controller, so the
// request queue is empty and the controller's state is exactly its
// policies, bank timing, ACT history, FR-FCFS bypass count, refresh
// epoch and Stats. They serialize verbatim, in absolute cycles like the
// vault clock: a checkpoint is restored at the clock it was taken at,
// so the restored controller schedules every later request exactly as
// the uninterrupted one does.
//
// DecodeCkpt writes into the controller as it parses. The machine
// decodes into a freshly built vault set and swaps it in only once the
// whole checkpoint has decoded, so a corrupt checkpoint never reaches a
// live controller.

import (
	"fmt"
	"math"

	"ipim/internal/ckpt"
)

// ckptHorizon bounds every decoded timestamp. The owning vault drains
// its controllers to math.MaxInt64/2 and no controller reaches a later
// time, so a timestamp at or past it can only come from a hostile
// checkpoint, and timing arithmetic on earlier ones cannot overflow.
const ckptHorizon = math.MaxInt64 / 2

// EncodeCkpt appends the controller's checkpoint state to e. The
// request queue must be empty; EncodeCkpt panics otherwise.
func (c *Controller) EncodeCkpt(e *ckpt.Enc) {
	if len(c.queue) != 0 {
		panic(fmt.Sprintf("dram: checkpoint with %d queued requests", len(c.queue)))
	}
	e.U8(uint8(c.page))
	e.U8(uint8(c.sched))
	e.U32(uint32(len(c.banks)))
	for _, b := range c.banks {
		e.Int(b.openRow)
		e.I64(b.preReady)
		e.I64(b.actReady)
		e.I64(b.colReady)
	}
	e.I64s(c.actTimes)
	e.I64(c.lastAct)
	e.Bool(c.hadAct)
	e.I64s(c.lastActGroup)
	e.Bools(c.hadActGroup)
	e.Int(c.bypassed)
	e.I64(c.nextRefresh)
	e.I64(c.refUntil)

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

// DecodeCkpt reads one controller checkpoint from d into c, which must
// be idle, with the bank count the checkpoint was taken with. Errors
// wrap ckpt.ErrCorrupt; after one, c is partly overwritten and must be
// discarded.
func (c *Controller) DecodeCkpt(d *ckpt.Dec) error {
	page := PagePolicy(d.U8())
	sched := SchedPolicy(d.U8())
	nb := int(d.U32())
	if d.Err() == nil && nb != len(c.banks) {
		return fmt.Errorf("dram: checkpoint has %d banks, controller has %d: %w", nb, len(c.banks), ckpt.ErrCorrupt)
	}
	for i := range c.banks {
		c.banks[i] = bankState{
			openRow:  d.Int(),
			preReady: d.I64(),
			actReady: d.I64(),
			colReady: d.I64(),
		}
	}
	c.actTimes = d.I64s()
	c.lastAct = d.I64()
	c.hadAct = d.Bool()
	c.lastActGroup = d.I64s()
	c.hadActGroup = d.Bools()
	c.bypassed = d.Int()
	c.nextRefresh = d.I64()
	c.refUntil = d.I64()

	c.Stats = Stats{
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
		return err
	}

	if page > ClosePage || sched > FCFS {
		return fmt.Errorf("dram: checkpoint has unknown policy (page=%d sched=%d): %w", page, sched, ckpt.ErrCorrupt)
	}
	c.page, c.sched = page, sched
	groups := (len(c.banks) + 1) / 2
	if len(c.lastActGroup) != groups || len(c.hadActGroup) != groups {
		return fmt.Errorf("dram: checkpoint has %d/%d ACT groups, controller has %d: %w",
			len(c.lastActGroup), len(c.hadActGroup), groups, ckpt.ErrCorrupt)
	}
	if len(c.actTimes) > fawACTs {
		return fmt.Errorf("dram: checkpoint carries %d ACT timestamps (max %d): %w", len(c.actTimes), fawACTs, ckpt.ErrCorrupt)
	}
	// Every controller starts at the first epoch and steps by whole
	// epochs, so any other refresh epoch is unreachable.
	if refi := int64(c.timing.TREFI); c.nextRefresh <= 0 || c.nextRefresh%refi != 0 {
		return fmt.Errorf("dram: checkpoint refresh epoch %d is not a positive multiple of tREFI %d: %w", c.nextRefresh, refi, ckpt.ErrCorrupt)
	}
	times := append([]int64{c.lastAct, c.nextRefresh, c.refUntil}, c.actTimes...)
	times = append(times, c.lastActGroup...)
	for _, b := range c.banks {
		times = append(times, b.preReady, b.actReady, b.colReady)
	}
	for _, t := range times {
		if t >= ckptHorizon {
			return fmt.Errorf("dram: checkpoint timestamp %d at or past the horizon %d: %w", t, int64(ckptHorizon), ckpt.ErrCorrupt)
		}
	}
	return nil
}
