package compiler

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

// buildDepsRef is the all-pairs dependency graph builder, the
// reference the one-pass buildDeps is checked against: register
// RAW/WAR/WAW edges, then a memory alias edge for every pair of
// accesses with aliasing tags and at least one writer, then the memory
// order edges. It adds edges in several passes, so its duplicate check
// scans the whole successor list.
func buildDepsRef(cfg *sim.Config, b *block, memOrder bool) *depGraph {
	n := len(b.ins)
	g := &depGraph{n: n, succ: make([][]edge, n), pred: make([]int, n), lat: make([]int64, n)}
	addEdge := func(i, j int, lat int64) {
		for k, s := range g.succ[i] {
			if s.to == j {
				if lat > s.lat {
					g.succ[i][k].lat = lat
				}
				return
			}
		}
		g.succ[i] = append(g.succ[i], edge{j, lat})
		g.pred[j]++
	}
	for i := 0; i < n; i++ {
		g.lat[i] = estimateLatency(cfg, &b.ins[i])
	}
	// Register edges: last writer / readers tracking.
	lastDef := map[isa.RegRef]int{}
	lastUses := map[isa.RegRef][]int{}
	for j := 0; j < n; j++ {
		in := &b.ins[j]
		for _, u := range in.Uses() {
			if w, ok := lastDef[u]; ok {
				addEdge(w, j, g.lat[w]) // RAW: full producer latency
			}
			lastUses[u] = append(lastUses[u], j)
		}
		for _, d := range in.Defs() {
			if w, ok := lastDef[d]; ok {
				addEdge(w, j, 1) // WAW: issue order only
			}
			for _, r := range lastUses[d] {
				if r != j {
					addEdge(r, j, 1) // WAR: issue order only
				}
			}
			lastDef[d] = j
			delete(lastUses, d)
		}
	}
	// Memory alias edges.
	alias := func(t1, t2 int) bool { return t1 == t2 || t1 < 0 || t2 < 0 }
	for j := 0; j < n; j++ {
		ej := effectsOf(&b.ins[j])
		if ej == (effects{}) {
			continue
		}
		tj := b.tags[j]
		for i := 0; i < j; i++ {
			ei := effectsOf(&b.ins[i])
			if ei == (effects{}) {
				continue
			}
			ti := b.tags[i]
			conflict :=
				(ei.writesBank && (ej.readsBank || ej.writesBank) || ej.writesBank && ei.readsBank) &&
					alias(ti.bank, tj.bank) ||
					(ei.writesPGSM && (ej.readsPGSM || ej.writesPGSM) || ej.writesPGSM && ei.readsPGSM) &&
						alias(ti.pgsm, tj.pgsm) ||
					(ei.writesVSM && (ej.readsVSM || ej.writesVSM) || ej.writesVSM && ei.readsVSM) &&
						alias(ti.vsm, tj.vsm)
			if conflict {
				addEdge(i, j, orderLat)
			}
		}
	}
	if memOrder {
		prevByTag := map[int]int{}
		prevUnknown := -1
		for j := 0; j < n; j++ {
			if !b.ins[j].Op.AccessesBank() {
				continue
			}
			tag := b.tags[j].bank
			if tag < 0 {
				for _, p := range prevByTag {
					addEdge(p, j, orderLat)
				}
				if prevUnknown >= 0 {
					addEdge(prevUnknown, j, orderLat)
				}
				prevUnknown = j
				continue
			}
			if p, ok := prevByTag[tag]; ok {
				addEdge(p, j, orderLat)
			}
			if prevUnknown >= 0 {
				addEdge(prevUnknown, j, orderLat)
			}
			prevByTag[tag] = j
		}
	}
	return g
}

// checkScheduleVsRef requires every edge of the one-pass graph of b to
// be an edge of the reference graph, at no higher latency, and
// Algorithm 1 to give the same permutation on both graphs.
func checkScheduleVsRef(t *testing.T, cfg *sim.Config, b *block, memOrder bool, what string) {
	t.Helper()
	g, ref := buildDeps(cfg, b, memOrder), buildDepsRef(cfg, b, memOrder)
	for i := range g.succ {
		refLat := map[int]int64{}
		for _, e := range ref.succ[i] {
			refLat[e.to] = e.lat
		}
		for _, e := range g.succ[i] {
			if l, ok := refLat[e.to]; !ok || e.lat > l {
				t.Fatalf("%s: edge %d->%d (lat %d) not in the reference graph (lat %d, present %v)", what, i, e.to, e.lat, l, ok)
			}
		}
	}
	got, want := schedule(b, g), schedule(b, ref)
	if !slices.Equal(got, want) {
		for pos := range got {
			if got[pos] != want[pos] {
				t.Fatalf("%s: %d instructions: position %d issues %d, reference issues %d", what, len(b.ins), pos, got[pos], want[pos])
			}
		}
	}
}

// TestScheduleMatchesReference runs every reorderable block of every
// program-golden compile, as Compile hands it to Reorder, through
// checkScheduleVsRef under the compile's memory-order setting. No
// block may hold a sync barrier: nothing in the graph would keep one
// in place.
func TestScheduleMatchesReference(t *testing.T) {
	blocks := 0
	for _, c := range goldenCompiles() {
		cfg := c.cfg
		plan, err := NewPlan(&cfg, c.pipe(), c.w, c.h)
		if err != nil {
			continue // pinned as an error by TestProgramGolden
		}
		mods, _, err := allocatedModules(plan, c.opts)
		if err != nil {
			continue // pinned as an error by TestProgramGolden
		}
		for mi, mod := range mods {
			for bi, b := range mod.blocks {
				if !b.reorderable {
					continue
				}
				what := fmt.Sprintf("%s module %d block %d", c.name, mi, bi)
				for i := range b.ins {
					if b.ins[i].Op == isa.OpSync {
						t.Fatalf("%s: sync at %d in reorderable block", what, i)
					}
				}
				if len(b.ins) < 2 {
					continue
				}
				checkScheduleVsRef(t, &cfg, b, c.opts.MemOrder, what)
				blocks++
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no reorderable blocks checked")
	}
}

// fuzzOps are the opcodes FuzzScheduleVsReference draws: every bank,
// PGSM and VSM load and store, the VSM writers req and seti_vsm, and
// the register-only comp and calc_arf.
var fuzzOps = []isa.Opcode{
	isa.OpLdRF, isa.OpStRF, isa.OpLdPGSM, isa.OpStPGSM, isa.OpRdPGSM, isa.OpWrPGSM,
	isa.OpRdVSM, isa.OpWrVSM, isa.OpReq, isa.OpSetiVSM, isa.OpComp, isa.OpCalcARF,
}

// fuzzBlock decodes a reorderable block from data, four bytes an
// instruction: opcode, two bytes of physical registers 0–7 and flags,
// and per-class alias tags in {-1, 0, 1, 2}.
func fuzzBlock(data []byte) *block {
	b := &block{labelID: -1, reorderable: true}
	for ; len(data) >= 4 && len(b.ins) < 96; data = data[4:] {
		op, r1, r2, tg := data[0], data[1], data[2], data[3]
		in := isa.New(fuzzOps[int(op)%len(fuzzOps)])
		in.Dst, in.Src1, in.Src2 = int(r1&7), int(r1>>3&7), int(r2&7)
		in.Addr, in.Indirect = uint32(r2>>3&7), r1&0x40 != 0
		in.Addr2, in.Indirect2 = uint32(r2>>3&7^1), r1&0x80 != 0
		switch in.Op {
		case isa.OpComp:
			in.ALU = isa.FAdd
			if r2&0x40 != 0 {
				in.ALU = isa.FMac // reads its destination too
			}
		case isa.OpCalcARF:
			in.ALU, in.HasImm = isa.IAdd, r2&0x40 != 0
		}
		b.ins = append(b.ins, in)
		b.tags = append(b.tags, memTag{bank: int(tg&3) - 1, pgsm: int(tg>>2&3) - 1, vsm: int(tg>>4&3) - 1})
	}
	return b
}

// FuzzScheduleVsReference checks random blocks through
// checkScheduleVsRef, with memory order enforcement on or off.
func FuzzScheduleVsReference(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 32, 96} {
		seed := make([]byte, 1+4*n)
		r.Read(seed)
		f.Add(seed)
	}
	cfg := sim.TestTiny()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		b := fuzzBlock(data[1:])
		if len(b.ins) < 2 {
			return
		}
		checkScheduleVsRef(t, &cfg, b, data[0]&1 != 0, "fuzz block")
	})
}
