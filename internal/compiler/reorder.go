package compiler

import (
	"container/heap"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Instruction reordering (paper Sec. V-C, Algorithm 1): list
// scheduling over the dependency graph of each reorderable block,
// exposing instruction-level parallelism to the in-order core. The
// memory order enforcement pass adds two extra edge kinds before
// scheduling (paper Fig. 5): deferral edges that keep consecutive DRAM
// requests from monopolizing the instruction/request queues, and
// ordering edges that preserve the program's bank access order (and
// with it the row-buffer locality of the tile layout).
//
// The graph is built in one pass. Its alias edges come from the last
// writer and the readers since it, per memory class and alias tag,
// rather than from every earlier access of an aliasing tag: a reader
// depends on the last writer of each aliasing tag, a writer also on
// every reader since it, and tag -1 aliases every tag. Each edge this
// adds is an edge of the all-pairs graph. Each all-pairs alias edge
// i→j it leaves out is implied by a path of at least two alias edges
// it keeps: the writers of one tag form a chain, so an earlier writer
// reaches j through the last one, and a reader that is no longer
// pending reaches j through the first writer after it. Those edges
// carry at least orderLat each, so Algorithm 1 computes the same T for
// every node and releases it in the same step; its ready heaps order
// by (T, index), so successor order does not matter either, and the
// schedule is identical.

// effects describes an instruction's memory behavior for alias edges.
type effects struct {
	readsBank, writesBank bool
	readsPGSM, writesPGSM bool
	readsVSM, writesVSM   bool
}

func effectsOf(in *isa.Instruction) effects {
	switch in.Op {
	case isa.OpLdRF:
		return effects{readsBank: true}
	case isa.OpStRF:
		return effects{writesBank: true}
	case isa.OpLdPGSM:
		return effects{readsBank: true, writesPGSM: true}
	case isa.OpStPGSM:
		return effects{readsPGSM: true, writesBank: true}
	case isa.OpRdPGSM:
		return effects{readsPGSM: true}
	case isa.OpWrPGSM:
		return effects{writesPGSM: true}
	case isa.OpRdVSM:
		return effects{readsVSM: true}
	case isa.OpWrVSM, isa.OpSetiVSM, isa.OpReq:
		return effects{writesVSM: true}
	}
	return effects{}
}

// depGraph is a DAG over one block's instructions. Edges carry their
// own latency: a true RAW dependency delays the consumer by the
// producer's full latency, while ordering edges (WAR/WAW, memory
// ordering) only impose issue/burst spacing.
type depGraph struct {
	n    int
	succ [][]edge
	pred []int // in-degree
	lat  []int64
}

type edge struct {
	to  int
	lat int64
}

// addEdge adds i→j, or raises the latency of an existing i→j edge.
// buildDeps adds every edge into j during j's step, so an existing i→j
// edge can only be the last one out of i.
func (g *depGraph) addEdge(i, j int, lat int64) {
	if s := g.succ[i]; len(s) > 0 && s[len(s)-1].to == j {
		if lat > s[len(s)-1].lat {
			s[len(s)-1].lat = lat
		}
		return
	}
	g.succ[i] = append(g.succ[i], edge{j, lat})
	g.pred[j]++
}

// orderLat is the spacing for pure ordering edges (DRAM burst length).
const orderLat = 2

// estimateLatency approximates instruction latency for scheduling
// priorities (exact service times are dynamic).
func estimateLatency(cfg *sim.Config, in *isa.Instruction) int64 {
	switch in.Op {
	case isa.OpComp:
		return int64(cfg.LatencyOf(compClass(in.ALU)))
	case isa.OpCalcARF, isa.OpCalcCRF:
		return int64(cfg.LatencyOf(compClass(in.ALU)))
	case isa.OpLdRF, isa.OpLdPGSM:
		return int64(cfg.Timing.TRCD + cfg.Timing.TCL + 1)
	case isa.OpStRF, isa.OpStPGSM:
		return int64(cfg.Timing.TCWL + 2)
	case isa.OpRdPGSM, isa.OpWrPGSM:
		return int64(cfg.TPGSM + cfg.TDataRF)
	case isa.OpRdVSM, isa.OpWrVSM:
		return int64(cfg.TTSV + cfg.TVSM + cfg.TDataRF)
	}
	return 1
}

// compClass mirrors the vault's latency classification.
func compClass(op isa.ALUOp) sim.ALUClass {
	switch op {
	case isa.FAdd, isa.FSub, isa.IAdd, isa.ISub, isa.FMin, isa.FMax,
		isa.IMin, isa.IMax, isa.FCmpLT, isa.FCmpLE, isa.ICmpLT, isa.ICmpEQ,
		isa.FAbs, isa.FFloor:
		return sim.ClassAdd
	case isa.FMul, isa.IMul, isa.FDiv:
		return sim.ClassMul
	case isa.FMac, isa.IMac:
		return sim.ClassMac
	}
	return sim.ClassLogic
}

// regState is the last writer and the readers since it of every
// register, indexed by register space and number: registers are
// physical by the time the reorderer runs.
type regState [isa.SpaceCRF + 1][]regAccess

type regAccess struct {
	def  int   // last writer + 1; 0 = none
	uses []int // readers since the last writer
}

func (s *regState) at(r isa.RegRef) *regAccess {
	t := &s[r.Space]
	if r.Index >= len(*t) {
		*t = append(*t, make([]regAccess, r.Index+1-len(*t))...)
	}
	return &(*t)[r.Index]
}

// aliasState is one memory class's last writer and the readers since
// it, per alias tag. Tag -1 aliases every tag.
type aliasState map[int]*tagAccess

type tagAccess struct {
	writer int   // last writer + 1; 0 = none
	reads  []int // readers since the last writer
}

// access adds the alias edges into instruction j, which reads or (when
// write) writes the class under tag: from the last writer of every
// aliasing tag and, for a writer, from every reader since it. It then
// records j.
func (s aliasState) access(g *depGraph, j, tag int, write bool) {
	from := func(a *tagAccess) {
		if a == nil {
			return
		}
		if a.writer > 0 {
			g.addEdge(a.writer-1, j, orderLat)
		}
		if write {
			for _, r := range a.reads {
				g.addEdge(r, j, orderLat)
			}
		}
	}
	if tag < 0 {
		for _, a := range s {
			from(a)
		}
	} else {
		from(s[tag])
		from(s[-1])
	}
	a := s[tag]
	if a == nil {
		a = &tagAccess{}
		s[tag] = a
	}
	if write {
		a.writer, a.reads = j+1, a.reads[:0]
	} else {
		a.reads = append(a.reads, j)
	}
}

// buildDeps constructs the dependency DAG of a block in one pass,
// adding every edge into instruction j during j's step: register RAW/
// WAW/WAR edges, memory alias edges from the last writer and readers
// per tag (see the header comment) and, with memOrder, memory order
// edges.
func buildDeps(cfg *sim.Config, b *block, memOrder bool) *depGraph {
	n := len(b.ins)
	g := &depGraph{n: n, succ: make([][]edge, n), pred: make([]int, n), lat: make([]int64, n)}
	for i := 0; i < n; i++ {
		g.lat[i] = estimateLatency(cfg, &b.ins[i])
	}
	var regs regState
	bank, pgsm, vsm := aliasState{}, aliasState{}, aliasState{}
	// Memory order enforcement state: the last bank access per tag and
	// the last one with an unknown tag.
	prevByTag := map[int]int{}
	prevUnknown := -1
	for j := 0; j < n; j++ {
		in := &b.ins[j]
		for _, u := range in.Uses() {
			r := regs.at(u)
			if r.def > 0 {
				g.addEdge(r.def-1, j, g.lat[r.def-1]) // RAW: full producer latency
			}
			r.uses = append(r.uses, j)
		}
		for _, d := range in.Defs() {
			r := regs.at(d)
			if r.def > 0 {
				g.addEdge(r.def-1, j, 1) // WAW: issue order only
			}
			for _, u := range r.uses {
				if u != j {
					g.addEdge(u, j, 1) // WAR: issue order only
				}
			}
			r.def, r.uses = j+1, r.uses[:0]
		}

		e, t := effectsOf(in), b.tags[j]
		if e.readsBank || e.writesBank {
			bank.access(g, j, t.bank, e.writesBank)
		}
		if e.readsPGSM || e.writesPGSM {
			pgsm.access(g, j, t.pgsm, e.writesPGSM)
		}
		if e.readsVSM || e.writesVSM {
			vsm.access(g, j, t.vsm, e.writesVSM)
		}

		if !memOrder || !in.Op.AccessesBank() {
			continue
		}
		// Memory order enforcement: bank accesses to the same buffer
		// keep program order (the lowering emits them row-sequentially,
		// so this preserves row-buffer locality); accesses with unknown
		// tags chain conservatively with everything (paper Fig. 5).
		if t.bank < 0 {
			// Unknown: order against every prior bank access.
			for _, p := range prevByTag {
				g.addEdge(p, j, orderLat)
			}
		} else if p, ok := prevByTag[t.bank]; ok {
			g.addEdge(p, j, orderLat)
		}
		if prevUnknown >= 0 {
			g.addEdge(prevUnknown, j, orderLat)
		}
		if t.bank < 0 {
			prevUnknown = j
		} else {
			prevByTag[t.bank] = j
		}
	}
	return g
}

// readyItem is a heap entry for Algorithm 1's ready set.
type readyItem struct {
	node   int
	t      int64
	isLoad bool
}

type readyHeap []readyItem

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].node < h[j].node // stable on original order
}
func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(readyItem)) }
func (h *readyHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// schedule runs Algorithm 1 on one block: topological list scheduling
// with T(v) timestamps; among ready nodes, a load whose T is within
// the current step is preferred, otherwise the smallest T. It returns
// the issue order as a permutation of the block's indices.
func schedule(b *block, g *depGraph) []int {
	n := g.n
	T := make([]int64, n)
	loads := &readyHeap{}
	others := &readyHeap{}
	add := func(v int) {
		it := readyItem{node: v, t: T[v], isLoad: b.ins[v].Op.IsBankLoad()}
		if it.isLoad {
			heap.Push(loads, it)
		} else {
			heap.Push(others, it)
		}
	}
	for v := 0; v < n; v++ {
		if g.pred[v] == 0 {
			add(v)
		}
	}
	perm := make([]int, 0, n)
	var cur int64
	for len(perm) < n {
		var v int
		switch {
		case loads.Len() > 0 && (*loads)[0].t <= cur:
			v = heap.Pop(loads).(readyItem).node
		case others.Len() > 0 && (loads.Len() == 0 || (*others)[0].t <= (*loads)[0].t):
			v = heap.Pop(others).(readyItem).node
		case loads.Len() > 0:
			v = heap.Pop(loads).(readyItem).node
		default:
			v = heap.Pop(others).(readyItem).node
		}
		if T[v] > cur {
			cur = T[v]
		}
		perm = append(perm, v)
		cur++
		for _, e := range g.succ[v] {
			if t := T[v] + e.lat; t > T[e.to] {
				T[e.to] = t
			}
			g.pred[e.to]--
			if g.pred[e.to] == 0 {
				add(e.to)
			}
		}
	}
	return perm
}

// permute reorders the block so that position pos holds the
// instruction previously at perm[pos].
func (b *block) permute(perm []int) {
	ins := make([]isa.Instruction, len(perm))
	tags := make([]memTag, len(perm))
	for pos, v := range perm {
		ins[pos] = b.ins[v]
		tags[pos] = b.tags[v]
	}
	b.ins, b.tags = ins, tags
}

// Reorder applies memory order enforcement and Algorithm 1 to every
// reorderable block per the options.
func Reorder(mod *module, cfg *sim.Config, opts Options) {
	if !opts.Reorder {
		return
	}
	for _, b := range mod.blocks {
		if !b.reorderable || len(b.ins) < 2 {
			continue
		}
		b.permute(schedule(b, buildDeps(cfg, b, opts.MemOrder)))
	}
}
