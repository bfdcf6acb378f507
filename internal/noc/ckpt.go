package noc

// Checkpoint codec for link state. A shard's timing state is entirely
// its link-occupancy timeline (linkFree), which is kept in absolute
// cycles like the vault clocks, so it serializes verbatim; alongside it
// go the shard's traffic counters and — when a fault plan is attached —
// the link-fault decision-stream position, which must survive a restore
// so the resumed run rolls exactly the faults the uninterrupted run
// would have rolled.
//
// DecodeCkpt writes into the shard as it parses. The machine decodes
// into freshly built shards and swaps them in only once the whole
// checkpoint has decoded. The fault-plan attachment itself is not
// serialized: the machine attaches plans before decoding (AttachFaults
// zeroes the stream position; DecodeCkpt then restores it).

import (
	"fmt"

	"ipim/internal/ckpt"
)

// EncodeCkpt appends the shard's checkpoint state to e.
func (st *LinkState) EncodeCkpt(e *ckpt.Enc) {
	e.U32(uint32(len(st.linkFree)))
	for i := range st.linkFree {
		for d := 0; d < int(numDirs); d++ {
			e.I64(st.linkFree[i][d])
		}
	}
	var n uint64
	if st.faults != nil {
		n = st.faults.n
	}
	e.U64(n)
	e.I64(st.Stats.Packets)
	e.I64(st.Stats.Flits)
	e.I64(st.Stats.Hops)
	e.I64(st.Stats.MaxLatency)
	e.I64(st.Stats.LinkFaults)
	e.I64(st.Stats.RetransmitFlits)
}

// DecodeCkpt reads one link-state checkpoint from d into st, which must
// come from the same mesh's NewLinkState. The decision-stream position
// is restored only when a fault state is attached. Errors wrap
// ckpt.ErrCorrupt; after one, st is partly overwritten and must be
// discarded.
func (st *LinkState) DecodeCkpt(d *ckpt.Dec) error {
	n := int(d.U32())
	if d.Err() == nil && n != len(st.linkFree) {
		return fmt.Errorf("noc: checkpoint has %d nodes, mesh has %d: %w", n, len(st.linkFree), ckpt.ErrCorrupt)
	}
	for i := range st.linkFree {
		for dir := 0; dir < int(numDirs); dir++ {
			st.linkFree[i][dir] = d.I64()
		}
	}
	faultN := d.U64()
	if st.faults != nil {
		st.faults.n = faultN
	}
	st.Stats = Stats{
		Packets:         d.I64(),
		Flits:           d.I64(),
		Hops:            d.I64(),
		MaxLatency:      d.I64(),
		LinkFaults:      d.I64(),
		RetransmitFlits: d.I64(),
	}
	return d.Err()
}
