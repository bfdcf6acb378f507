package noc

// Checkpoint codec for link state. A shard's timing state is entirely
// its link-occupancy timeline (linkFree), which is kept in absolute
// cycles like the vault clocks, so it serializes verbatim; alongside it
// go the shard's traffic counters and — when a fault plan is attached —
// the link-fault decision-stream position, which must survive a restore
// so the resumed run rolls exactly the faults the uninterrupted run
// would have rolled.
//
// Decode validates against the expected node count and never touches
// live state; Apply is infallible on a validated image. The fault-plan
// attachment itself is not serialized here — the machine layer
// re-attaches plans before applying images (AttachFaults zeroes the
// stream position; Apply then restores it).

import (
	"fmt"

	"ipim/internal/ckpt"
)

// LinkImage is a decoded, validated checkpoint of one LinkState.
// Produced only by DecodeLinkCkpt.
type LinkImage struct {
	linkFree []int64 // flattened [node][dir], absolute cycles
	faultN   uint64
	stats    Stats
}

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

// DecodeLinkCkpt parses one link-state checkpoint from d and validates
// it against a mesh with the given node count. It touches no live
// state; errors wrap ckpt.ErrCorrupt.
func DecodeLinkCkpt(d *ckpt.Dec, nodes int) (*LinkImage, error) {
	img := &LinkImage{}
	n := int(d.U32())
	if d.Err() == nil && n != nodes {
		return nil, fmt.Errorf("noc: checkpoint has %d nodes, mesh has %d: %w", n, nodes, ckpt.ErrCorrupt)
	}
	for i := 0; i < n*int(numDirs) && d.Err() == nil; i++ {
		img.linkFree = append(img.linkFree, d.I64())
	}
	img.faultN = d.U64()
	img.stats = Stats{
		Packets:         d.I64(),
		Flits:           d.I64(),
		Hops:            d.I64(),
		MaxLatency:      d.I64(),
		LinkFaults:      d.I64(),
		RetransmitFlits: d.I64(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return img, nil
}

// ApplyLinkCkpt rewrites the shard's state from a validated image.
// Never fails: all validation happened in DecodeLinkCkpt. The
// decision-stream position is restored only when a fault state is
// attached (the machine layer re-attaches plans before applying, so a
// faulted checkpoint always finds one).
func (st *LinkState) ApplyLinkCkpt(img *LinkImage) {
	for i := range st.linkFree {
		for d := 0; d < int(numDirs); d++ {
			st.linkFree[i][d] = img.linkFree[i*int(numDirs)+d]
		}
	}
	if st.faults != nil {
		st.faults.n = img.faultN
	}
	st.Stats = img.stats
}
