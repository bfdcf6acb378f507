package compiler

import (
	"fmt"
	"sort"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Register allocation (paper Sec. V-C). Virtual registers get physical
// DataRF/AddrRF entries using one of two policies:
//
//   - min: classic minimize-register-count coloring (always pick the
//     lowest free physical register). On iPIM's in-order core without
//     renaming this creates anti/output dependencies that stall issue.
//   - max: the paper's policy — scatter values so a physical register
//     is not reused while recently-freed alternatives exist, eliminating
//     avoidable WAR/WAW hazards (implemented as least-recently-freed
//     selection).
//
// When DataRF pressure exceeds capacity, values spill to a reserved
// region of the local bank (the behavior behind the paper's Fig. 10a
// sensitivity: fewer registers ⇒ more spills + more hazards).

// spillTemps is the number of DataRF entries reserved to feed spilled
// operands through an instruction (comp reads up to 2 sources plus a
// mac accumulator).
const spillTemps = 3

type allocator struct {
	cfg  *sim.Config
	opts Options
	plan *Plan
	mod  *module

	// Linearized instruction stream (block, index) pairs.
	order []instrRef
	// Live ranges per virtual register, in linear positions, indexed
	// by space and by vreg minus the space's first id (vregBase).
	ranges [isa.SpaceARF + 1][]liveRange
}

type instrRef struct {
	b  *block
	ix int
}

type liveRange struct {
	vreg       int // 0 while the slot's vreg has no range
	start, end int
}

// vregBase is the first virtual register id of a space.
func vregBase(space isa.RegSpace) int {
	if space == isa.SpaceARF {
		return aregBase
	}
	return VRegBase
}

// rangeOf returns the live range slot of virtual register v.
func (a *allocator) rangeOf(space isa.RegSpace, v int) *liveRange {
	rs := &a.ranges[space]
	i := v - vregBase(space)
	if i >= len(*rs) {
		*rs = append(*rs, make([]liveRange, i+1-len(*rs))...)
	}
	return &(*rs)[i]
}

// Allocate rewrites the module in place, replacing virtual registers
// with physical ones and inserting spill code. It returns the spill
// count for diagnostics.
func Allocate(mod *module, plan *Plan, opts Options) (int, error) {
	a := &allocator{cfg: plan.Cfg, opts: opts, plan: plan, mod: mod}
	a.linearize()
	a.buildRanges()
	a.extendLoopRanges()

	// ARF allocation (no spilling; generated address pressure is low).
	nARF := a.cfg.AddrRFEntries - isa.ARFFirstFree
	if err := a.assign(isa.SpaceARF, isa.ARFFirstFree, nARF, nil); err != nil {
		return 0, fmt.Errorf("compiler: AddrRF pressure: %w", err)
	}

	// DRF allocation with spilling.
	nDRF := a.cfg.DataRFEntries - spillTemps
	if nDRF < 1 {
		return 0, fmt.Errorf("compiler: DataRF too small (%d entries)", a.cfg.DataRFEntries)
	}
	spilled := map[int]int{} // vreg -> spill slot
	if err := a.assign(isa.SpaceDRF, 0, nDRF, spilled); err != nil {
		return 0, err
	}
	if len(spilled) > 0 {
		a.insertSpills(spilled)
	}
	return len(spilled), nil
}

func (a *allocator) linearize() {
	for _, b := range a.mod.blocks {
		for i := range b.ins {
			a.order = append(a.order, instrRef{b, i})
		}
	}
}

// allocated reports whether r is a virtual register of a space the
// allocator assigns (DataRF or AddrRF).
func allocated(r isa.RegRef) bool {
	return r.Space <= isa.SpaceARF && IsVirtual(r.Index)
}

// buildRanges records each virtual register's live range, from its
// first def or use to its last. A partial-lane def also reads its
// register (it keeps the other lanes), but that read falls at the
// def's own position and extends nothing.
func (a *allocator) buildRanges() {
	for pos, ref := range a.order {
		regs := ref.b.ins[ref.ix].Regs()
		for _, u := range regs.Use[:regs.NUse] {
			if !allocated(u) {
				continue
			}
			r := a.rangeOf(u.Space, u.Index)
			if r.vreg == 0 {
				// Use before def can only be a loop-carried base
				// register updated in place; start the range here.
				*r = liveRange{vreg: u.Index, start: pos}
			}
			r.end = pos
		}
		if d := regs.Def; regs.HasDef && allocated(d) {
			r := a.rangeOf(d.Space, d.Index)
			if r.vreg == 0 {
				*r = liveRange{vreg: d.Index, start: pos, end: pos}
			} else if pos > r.end {
				r.end = pos
			}
		}
	}
}

// extendLoopRanges fixes loop-carried liveness: a virtual register
// defined before a loop header and read inside the loop body is live
// across the back edge, so its range must cover the whole loop — the
// plain linear scan would otherwise free (and reuse) its physical
// register after the last *lexical* use, corrupting later iterations.
func (a *allocator) extendLoopRanges() {
	// Label id -> linear position of the label's block start.
	labelPos := map[int]int{}
	pos := 0
	for _, b := range a.mod.blocks {
		if b.labelID >= 0 {
			labelPos[b.labelID] = pos
		}
		pos += len(b.ins)
	}
	// Find back edges: a cjump/jump whose target register was set by
	// the closest preceding seti_crf with a label reference, where the
	// label sits at an earlier position.
	type loop struct{ start, end int }
	var loops []loop
	for p, ref := range a.order {
		in := &ref.b.ins[ref.ix]
		if in.Op != isa.OpCJump && in.Op != isa.OpJump {
			continue
		}
		for q := p - 1; q >= 0; q-- {
			s := &a.order[q].b.ins[a.order[q].ix]
			if s.Op == isa.OpSetiCRF && s.Dst == in.Src1 {
				if s.ImmLabel >= 0 {
					if lp, ok := labelPos[s.ImmLabel]; ok && lp <= p {
						loops = append(loops, loop{lp, p})
					}
				}
				break
			}
		}
	}
	for space := range a.ranges {
		for i := range a.ranges[space] {
			r := &a.ranges[space][i]
			for _, l := range loops {
				// Live into the loop and still used inside it: live for
				// the whole loop.
				if r.vreg != 0 && r.start < l.start && r.end >= l.start && r.end < l.end {
					r.end = l.end
				}
			}
		}
	}
}

// assign colors all ranges of one space. When spilled is non-nil,
// pressure overflow spills the range with the furthest end; otherwise
// overflow is an error.
func (a *allocator) assign(space isa.RegSpace, firstPhys, nPhys int, spilled map[int]int) error {
	var ranges []*liveRange
	for i := range a.ranges[space] {
		if r := &a.ranges[space][i]; r.vreg != 0 {
			ranges = append(ranges, r)
		}
	}
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].start != ranges[j].start {
			return ranges[i].start < ranges[j].start
		}
		return ranges[i].vreg < ranges[j].vreg
	})

	// phys maps vreg minus base to its physical register, -1 for none.
	base := vregBase(space)
	phys := make([]int, len(a.ranges[space]))
	for i := range phys {
		phys[i] = -1
	}
	type active struct {
		r    *liveRange
		phys int
	}
	var act []active
	// Free list: min policy keeps it sorted ascending; max policy keeps
	// least-recently-freed order (FIFO).
	var free []int
	for p := 0; p < nPhys; p++ {
		free = append(free, firstPhys+p)
	}
	expire := func(pos int) {
		dst := act[:0]
		for _, x := range act {
			if x.r.end < pos {
				free = append(free, x.phys)
				continue
			}
			dst = append(dst, x)
		}
		act = dst
		if !a.opts.RegAllocMax {
			sort.Ints(free)
		}
	}
	for _, r := range ranges {
		expire(r.start)
		if len(free) == 0 {
			if spilled == nil {
				return fmt.Errorf("out of %v registers at position %d", space, r.start)
			}
			// Spill the active range with the furthest end (or the new
			// range itself if it ends last).
			victim := -1
			for i, x := range act {
				if victim < 0 || x.r.end > act[victim].r.end {
					victim = i
				}
			}
			if victim >= 0 && act[victim].r.end > r.end {
				v := act[victim]
				spilled[v.r.vreg] = len(spilled)
				phys[v.r.vreg-base] = -1
				free = append(free, v.phys)
				act = append(act[:victim], act[victim+1:]...)
			} else {
				spilled[r.vreg] = len(spilled)
				continue
			}
		}
		p := free[0]
		free = free[1:]
		phys[r.vreg-base] = p
		act = append(act, active{r, p})
	}

	// Rewrite operands.
	rewrite := func(idx int) int {
		if !IsVirtual(idx) {
			return idx
		}
		if i := idx - base; i >= 0 && i < len(phys) && phys[i] >= 0 {
			return phys[i]
		}
		if spilled != nil {
			if _, ok := spilled[idx]; ok {
				return idx // handled by insertSpills
			}
		}
		panic(fmt.Sprintf("compiler: vreg %d of space %v unallocated", idx, space))
	}
	for _, ref := range a.order {
		ref.b.ins[ref.ix].RewriteRegs(space, rewrite)
	}
	return nil
}

// insertSpills rewrites instructions whose operands were spilled:
// loads before uses into reserved temps, stores after defs. Spill
// slots live at SpillBase + 16*slot and are addressed directly.
func (a *allocator) insertSpills(spilled map[int]int) {
	tempBase := a.cfg.DataRFEntries - spillTemps
	slotAddr := func(slot int) uint32 { return a.plan.SpillBase + uint32(16*slot) }
	spillTag := func(slot int) memTag {
		return memTag{bank: 1<<16 + slot, pgsm: -1, vsm: -1}
	}
	for _, b := range a.mod.blocks {
		var ins []isa.Instruction
		var tags []memTag
		for i := range b.ins {
			in := b.ins[i]
			tag := b.tags[i]
			nextTemp := 0
			tempOf := map[int]int{}
			mapUse := func(v int) int {
				if !IsVirtual(v) {
					return v
				}
				slot, ok := spilled[v]
				if !ok {
					return v
				}
				if t, ok := tempOf[v]; ok {
					return t
				}
				t := tempBase + nextTemp
				nextTemp++
				tempOf[v] = t
				ld := isa.New(isa.OpLdRF)
				ld.Dst = t
				ld.Addr = slotAddr(slot)
				ld.SimbMask = in.SimbMask
				ins = append(ins, ld)
				tags = append(tags, spillTag(slot))
				return t
			}
			// Reload spilled uses (including the read-modify-write
			// accumulator of mac), then a spilled partial-lane def,
			// whose unwritten lanes the instruction keeps.
			regs := in.Regs()
			for _, u := range regs.Use[:regs.NUse] {
				if u.Space == isa.SpaceDRF {
					mapUse(u.Index)
				}
			}
			writesDRF := regs.HasDef && regs.Def.Space == isa.SpaceDRF
			if writesDRF && in.Op.IsSIMB() && in.VecMask != isa.VecMaskAll {
				mapUse(regs.Def.Index)
			}
			// Rewrite all DRF operands through the temp map; a spilled
			// pure def gets a temp too.
			var defSlot = -1
			var defTemp = -1
			in.RewriteRegs(isa.SpaceDRF, func(v int) int {
				if !IsVirtual(v) {
					return v
				}
				if t, ok := tempOf[v]; ok {
					return t
				}
				slot, ok := spilled[v]
				if !ok {
					return v
				}
				t := tempBase + nextTemp
				nextTemp++
				tempOf[v] = t
				defSlot, defTemp = slot, t
				return t
			})
			// Defs that were reloaded as uses also need a writeback.
			if writesDRF {
				dst := in.Regs().Def.Index
				for v, t := range tempOf {
					if t == dst {
						defSlot, defTemp = spilled[v], t
					}
				}
			}
			ins = append(ins, in)
			tags = append(tags, tag)
			if defTemp >= 0 && writesDRF {
				st := isa.New(isa.OpStRF)
				st.Dst = defTemp
				st.Addr = slotAddr(defSlot)
				st.SimbMask = in.SimbMask
				ins = append(ins, st)
				tags = append(tags, spillTag(defSlot))
			}
		}
		b.ins, b.tags = ins, tags
	}
}
