package compiler

import (
	"fmt"

	"ipim/internal/halide"
	"ipim/internal/isa"
)

// VRegBase is the first virtual register id. Operand indices below it
// refer to pre-colored physical registers (the AddrRF ID registers
// A0–A3); indices at or above it are virtual and assigned by register
// allocation.
const VRegBase = 1 << 20

// aregBase is the first AddrRF virtual register id. DataRF vregs count
// up from VRegBase and AddrRF vregs from aregBase, so the two spaces'
// ids never meet.
const aregBase = 2 * VRegBase

// IsVirtual reports whether a register operand is virtual.
func IsVirtual(idx int) bool { return idx >= VRegBase }

// memTag identifies which planned memory object an instruction
// touches, enabling precise alias edges in the reordering pass. -1
// means "does not touch that space".
type memTag struct {
	bank int // buffer / spill-slot / const-pool id
	pgsm int // staged-region id
	vsm  int // VSM region id
}

var noTag = memTag{bank: -1, pgsm: -1, vsm: -1}

// block is a straight-line run of instructions. Reorderable blocks may
// be permuted by Algorithm 1; control blocks (loop bookkeeping, sync)
// keep their order. tags is index-aligned with ins.
type block struct {
	labelID     int // label bound at block start; -1 if none
	reorderable bool
	ins         []isa.Instruction
	tags        []memTag
}

// module is the compiler's working form of a program: blocks plus a
// label count. It converts to isa.Program after all passes run.
type module struct {
	blocks []*block
	labels int
	name   string
}

func (m *module) newLabel() int {
	m.labels++
	return m.labels - 1
}

// emit converts the module to a finalized isa.Program.
func (m *module) emit() (*isa.Program, error) {
	n := 0
	for _, b := range m.blocks {
		n += len(b.ins)
	}
	p := &isa.Program{Name: m.name, Ins: make([]isa.Instruction, 0, n)}
	for i := 0; i < m.labels; i++ {
		p.NewLabel()
	}
	for _, b := range m.blocks {
		if b.labelID >= 0 {
			p.BindAt(b.labelID, len(p.Ins))
		}
		p.Ins = append(p.Ins, b.ins...)
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// CRF register conventions used by generated code.
const (
	crfLoopTarget = 0 // jump target of the tile loop
	crfLoopCount  = 1 // remaining tile iterations
)

// kern builds the virtual-register IR for one pipeline.
type kern struct {
	plan  *Plan
	mod   *module
	cur   *block
	simb  uint64
	nextD int
	nextA int

	// Per-stage state.
	constReg   map[int]int // const pool index -> DRF vreg
	useOf      map[*BufPlan]*UsePlan
	baseReg    map[*BufPlan]int // ARF vreg holding current slot base
	pgsmBase   int              // ARF vreg holding the PE's PGSM partition base
	cse        map[cseKey]int
	simplified map[*halide.Func]halide.Expr
	phase      int

	// Multi-array (stage-ahead) state: the PGSM partition halves.
	// pgsmBase aliases pgsmCur while the schedule is active, so body
	// reads go through the alternating register; the loop epilogue
	// rotates cur/next through tmp.
	pgsmCur, pgsmNext, pgsmTmp int

	// Halo-exchange state (see exchange.go).
	exG         int // ARF vreg: vault-local PE index g
	exVdst      int // ARF vreg: this tile's VSM strip base
	exPgsmStrip int // ARF vreg: this tile's PGSM strip base (ViaPGSM)
}

type cseKey struct {
	buf            *BufPlan
	a0, a1, a2, a3 uint32
}

func newKern(plan *Plan) *kern {
	return &kern{
		plan:       plan,
		mod:        &module{name: plan.Pipe.Name},
		simb:       isa.MaskAll(plan.Cfg.PEsPerVault()),
		nextD:      VRegBase,
		nextA:      aregBase,
		simplified: map[*halide.Func]halide.Expr{},
	}
}

func (k *kern) startBlock(labelID int, reorderable bool) {
	k.cur = &block{labelID: labelID, reorderable: reorderable}
	k.mod.blocks = append(k.mod.blocks, k.cur)
}

func (k *kern) emit(in isa.Instruction) {
	k.emitTagged(in, noTag)
}

func (k *kern) emitTagged(in isa.Instruction, tag memTag) {
	k.cur.ins = append(k.cur.ins, in)
	k.cur.tags = append(k.cur.tags, tag)
}

// Reserved tag ids.
const (
	constPoolTag = 0
	firstBufTag  = 1
)

// bufTag returns the alias tag for a planned buffer.
func (k *kern) bufTag(b *BufPlan) int {
	for i, s := range k.plan.Stages {
		if s.Out == b {
			return firstBufTag + 1 + i
		}
	}
	return firstBufTag // the input buffer
}

func (k *kern) newD() int { k.nextD++; return k.nextD - 1 }
func (k *kern) newA() int { k.nextA++; return k.nextA - 1 }

// liA emits a load-immediate into a fresh ARF vreg (and aT, aT, #0 then
// iadd): the ISA has no seti for the AddrRF.
func (k *kern) liA(v uint32) int {
	a := k.newA()
	and := isa.New(isa.OpCalcARF)
	and.ALU, and.Dst, and.Src1 = isa.And, a, a
	and.HasImm, and.Imm = true, 0
	and.SimbMask = k.simb
	k.emit(and)
	add := isa.New(isa.OpCalcARF)
	add.ALU, add.Dst, add.Src1 = isa.IAdd, a, a
	add.HasImm, add.Imm = true, int64(v)
	add.SimbMask = k.simb
	k.emit(add)
	return a
}

// addA emits dst = src + imm into a fresh ARF vreg.
func (k *kern) addA(src int, imm int64) int {
	return k.calcRI(isa.IAdd, src, imm)
}

// calcRI emits a register-immediate scalar calc into a fresh ARF vreg.
func (k *kern) calcRI(op isa.ALUOp, src int, imm int64) int {
	a := k.newA()
	k.calcRIInto(op, a, src, imm)
	return a
}

// calcRIInto emits dst = op(src, #imm).
func (k *kern) calcRIInto(op isa.ALUOp, dst, src int, imm int64) {
	in := isa.New(isa.OpCalcARF)
	in.ALU, in.Dst, in.Src1 = op, dst, src
	in.HasImm, in.Imm = true, imm
	in.SimbMask = k.simb
	k.emit(in)
}

// calcRR emits a register-register scalar calc into a fresh ARF vreg.
func (k *kern) calcRR(op isa.ALUOp, src1, src2 int) int {
	a := k.newA()
	k.calcRRInto(op, a, src1, src2)
	return a
}

// calcRRInto emits dst = op(src1, src2).
func (k *kern) calcRRInto(op isa.ALUOp, dst, src1, src2 int) {
	in := isa.New(isa.OpCalcARF)
	in.ALU, in.Dst, in.Src1, in.Src2 = op, dst, src1, src2
	in.SimbMask = k.simb
	k.emit(in)
}

// bumpA emits reg += imm in place.
func (k *kern) bumpA(reg int, imm int64) {
	in := isa.New(isa.OpCalcARF)
	in.ALU, in.Dst, in.Src1 = isa.IAdd, reg, reg
	in.HasImm, in.Imm = true, imm
	in.SimbMask = k.simb
	k.emit(in)
}

// constVec returns the DRF vreg holding pool constant v, loading it
// from the bank-resident constant pool on first use in the stage.
func (k *kern) constVec(v float32) int {
	idx := k.plan.ConstIndex(v)
	if r, ok := k.constReg[idx]; ok {
		return r
	}
	d := k.newD()
	ld := isa.New(isa.OpLdRF)
	ld.Dst = d
	ld.Addr = k.plan.ConstAddr(idx)
	ld.SimbMask = k.simb
	k.emitTagged(ld, memTag{bank: constPoolTag, pgsm: -1, vsm: -1})
	k.constReg[idx] = d
	return d
}

// comp emits a vector ALU op into a fresh vreg.
func (k *kern) comp(op isa.ALUOp, src1, src2 int) int {
	d := k.newD()
	k.compInto(op, d, src1, src2)
	return d
}

// compInto emits a vector ALU op into an existing vreg (in-place
// accumulation; fmac additionally reads dst). The dependency passes
// handle the resulting WAW/WAR edges.
func (k *kern) compInto(op isa.ALUOp, dst, src1, src2 int) {
	in := isa.New(isa.OpComp)
	in.ALU, in.Dst, in.Src1, in.Src2 = op, dst, src1, src2
	in.SimbMask = k.simb
	k.emit(in)
}

var binOpALU = map[halide.BinOp]isa.ALUOp{
	halide.OpAdd: isa.FAdd,
	halide.OpSub: isa.FSub,
	halide.OpMul: isa.FMul,
	halide.OpDiv: isa.FDiv,
	halide.OpMin: isa.FMin,
	halide.OpMax: isa.FMax,
	halide.OpLT:  isa.FCmpLT,
}

// lanes are the four (x, y) producer/consumer-local coordinates one
// vector evaluation covers.
type lanes [4][2]int

func (l lanes) apply(cx, cy halide.Coord) lanes {
	var out lanes
	for i := 0; i < 4; i++ {
		out[i][0] = cx.Apply(l[i][0])
		out[i][1] = cy.Apply(l[i][1])
	}
	return out
}

// Lower builds the virtual-register module for a planned pipeline.
func Lower(plan *Plan) (*module, error) {
	k := newKern(plan)
	for i, sp := range plan.Stages {
		if i > 0 {
			// compute_root boundary: intermediate data lands in the
			// banks before the next kernel starts (paper Sec. V-A).
			k.startBlock(-1, false)
			sync := isa.New(isa.OpSync)
			sync.Phase = k.phase
			k.phase++
			k.emit(sync)
		}
		if err := k.lowerStage(sp); err != nil {
			return nil, fmt.Errorf("compiler: stage %q: %w", sp.F.Name, err)
		}
	}
	return k.mod, nil
}

// lowerStage emits one compute_root kernel: prologue, tile loop with
// optional PGSM staging, unrolled compute body, loop control.
func (k *kern) lowerStage(sp *StagePlan) error {
	plan := k.plan
	k.constReg = map[int]int{}
	k.useOf = map[*BufPlan]*UsePlan{}
	k.baseReg = map[*BufPlan]int{}
	for i := range sp.Uses {
		u := &sp.Uses[i]
		k.useOf[u.Buf] = u
	}

	// Prologue: constant loads happen lazily inside the body (they are
	// loop-invariant but reloading per stage keeps liveness simple);
	// base registers and loop bookkeeping are set up here.
	k.startBlock(-1, true)
	k.baseReg[sp.Out] = k.liA(sp.Out.Base)
	anyStaged := false
	for i := range sp.Uses {
		u := &sp.Uses[i]
		k.baseReg[u.Buf] = k.liA(u.Buf.Base)
		if u.Staged {
			anyStaged = true
		}
	}
	k.pgsmBase, k.pgsmCur, k.pgsmNext, k.pgsmTmp = -1, -1, -1, -1
	if anyStaged {
		// Partition base = peID * (PGSMBytes / PEsPerPG); peID is the
		// hardware-initialized A0.
		part := int64(plan.Cfg.PGSMBytes / plan.Cfg.PEsPerPG)
		k.pgsmBase = k.calcRI(isa.IMul, isa.ARFPeID, part)
		if sp.StageAhead {
			// Multi-array double buffer: split the partition into ping
			// (offset 0) and pong (offset StageBytes) halves, stage the
			// first tile's operands into ping here in the prologue, and
			// alias pgsmBase to the rotating cur register so the body's
			// compute reads follow the swap.
			k.pgsmCur = k.addA(k.pgsmBase, 0)
			k.pgsmNext = k.addA(k.pgsmBase, int64(sp.StageBytes))
			k.pgsmTmp = k.liA(0)
			k.pgsmBase = k.pgsmCur
			for i := range sp.Uses {
				u := &sp.Uses[i]
				if u.Staged {
					k.emitStaging(u)
				}
			}
		}
	}
	if sp.Publish {
		// Vault-local PE index g = pgID*PEsPerPG + peID, and the
		// per-tile VSM strip cursor (tile t = k*N + g).
		g := k.calcRI(isa.IMul, isa.ARFPgID, int64(plan.Cfg.PEsPerPG))
		k.exG = k.calcRR(isa.IAdd, g, isa.ARFPeID)
		k.exVdst = k.calcRI(isa.IMul, k.exG, int64(sp.Out.StripBytes()))
		k.exPgsmStrip = -1
		if sp.Out.ViaPGSM {
			part := int64(plan.Cfg.PGSMBytes / plan.Cfg.PEsPerPG)
			p := k.calcRI(isa.IMul, isa.ARFPeID, part)
			k.exPgsmStrip = k.calcRI(isa.IAdd, p, int64(sp.Out.StripPGSMBase))
		}
	}

	// Loop bookkeeping in a control block.
	k.startBlock(-1, false)
	loop := k.mod.newLabel()
	seti := isa.New(isa.OpSetiCRF)
	seti.Dst = crfLoopCount
	seti.Imm = int64(plan.TilesPerPE)
	k.emit(seti)
	setl := isa.New(isa.OpSetiCRF)
	setl.Dst = crfLoopTarget
	setl.ImmLabel = loop
	k.emit(setl)

	// Body: staging then compute, reorderable. Under the stage-ahead
	// schedule the current tile's operands were staged by the previous
	// iteration (or the prologue); the body instead prefetches the
	// NEXT tile's operands into the idle half, which the list
	// scheduler interleaves with this tile's compute.
	k.startBlock(loop, true)
	k.cse = map[cseKey]int{}
	for i := range sp.Uses {
		u := &sp.Uses[i]
		if !u.Staged {
			continue
		}
		if sp.StageAhead {
			k.emitStagingNext(u)
		} else {
			k.emitStaging(u)
		}
	}
	if err := k.emitCompute(sp); err != nil {
		return err
	}
	if sp.Publish {
		k.emitPublish(sp)
	}

	// Loop control: bump bases, swap staging halves, decrement, branch.
	k.startBlock(-1, false)
	bumped := map[int]bool{}
	for _, reg := range orderedBaseRegs(k.baseReg, sp) {
		if !bumped[reg.reg] {
			k.bumpA(reg.reg, int64(reg.slot)*1)
			bumped[reg.reg] = true
		}
	}
	if sp.StageAhead {
		// Rotate cur/next through tmp: the half just prefetched becomes
		// the compute half of the next iteration.
		k.calcRIInto(isa.IAdd, k.pgsmTmp, k.pgsmCur, 0)
		k.calcRIInto(isa.IAdd, k.pgsmCur, k.pgsmNext, 0)
		k.calcRIInto(isa.IAdd, k.pgsmNext, k.pgsmTmp, 0)
	}
	if sp.Publish {
		k.bumpA(k.exVdst, int64(plan.NumPEs*sp.Out.StripBytes()))
		if k.exPgsmStrip >= 0 {
			k.bumpA(k.exPgsmStrip, int64(sp.Out.StripBytes()))
		}
	}
	dec := isa.New(isa.OpCalcCRF)
	dec.ALU, dec.Dst, dec.Src1 = isa.ISub, crfLoopCount, crfLoopCount
	dec.HasImm, dec.Imm = true, 1
	k.emit(dec)
	cj := isa.New(isa.OpCJump)
	cj.Cond, cj.Src1 = crfLoopCount, crfLoopTarget
	k.emit(cj)

	if sp.Publish {
		return k.emitFill(sp)
	}
	return nil
}

type baseBump struct {
	reg  int
	slot uint32
}

// orderedBaseRegs returns base registers with their slot strides in a
// deterministic order (output first, then uses in plan order).
func orderedBaseRegs(baseReg map[*BufPlan]int, sp *StagePlan) []baseBump {
	var out []baseBump
	out = append(out, baseBump{baseReg[sp.Out], sp.Out.Slot})
	for i := range sp.Uses {
		b := sp.Uses[i].Buf
		out = append(out, baseBump{baseReg[b], b.Slot})
	}
	return out
}

// emitStaging copies the rows a use needs (full padded width) from the
// bank into the PE's PGSM partition (the load_pgsm schedule, Fig. 3b).
func (k *kern) emitStaging(u *UsePlan) {
	b := u.Buf
	rowBytes := b.Width() * 4
	for ly := u.Y.Lo; ly <= u.Y.Hi; ly++ {
		rowOff := (ly - b.Y.Lo) * rowBytes
		pgsmRow := int(u.PGSMOff) + (ly-u.Y.Lo)*rowBytes
		for cb := 0; cb < rowBytes; cb += 16 {
			aBank := k.addA(k.baseReg[b], int64(rowOff+cb))
			aPgsm := k.addA(k.pgsmBase, int64(pgsmRow+cb))
			ld := isa.New(isa.OpLdPGSM)
			ld.Addr, ld.Indirect = uint32(aBank), true
			ld.Addr2, ld.Indirect2 = uint32(aPgsm), true
			ld.SimbMask = k.simb
			k.emitTagged(ld, memTag{bank: k.bufTag(b), pgsm: k.bufTag(b), vsm: -1})
		}
	}
}

// stageNextTagBias offsets the pgsm alias tag of next-tile staging
// writes. The idle half never aliases the compute half within one
// iteration, so giving the prefetch a distinct tag removes the
// staging-before-read edges and lets the list scheduler overlap the
// DMA stream with compute — the multi-array schedule's entire win.
// Spill tags use 1<<16; this bias keeps the spaces disjoint.
const stageNextTagBias = 1 << 17

// emitStagingNext prefetches the next loop slot's rows of a staged use
// into the idle PGSM half (the stage-ahead schedule). The bank base is
// clamped to the last slot so the final iteration redundantly re-stages
// data nothing reads instead of running off the buffer.
func (k *kern) emitStagingNext(u *UsePlan) {
	b := u.Buf
	rowBytes := b.Width() * 4
	next := k.calcRI(isa.IAdd, k.baseReg[b], int64(b.Slot))
	last := int64(b.Base) + int64(k.plan.TilesPerPE-1)*int64(b.Slot)
	k.calcRIInto(isa.IMin, next, next, last)
	for ly := u.Y.Lo; ly <= u.Y.Hi; ly++ {
		rowOff := (ly - b.Y.Lo) * rowBytes
		pgsmRow := int(u.PGSMOff) + (ly-u.Y.Lo)*rowBytes
		for cb := 0; cb < rowBytes; cb += 16 {
			aBank := k.addA(next, int64(rowOff+cb))
			aPgsm := k.addA(k.pgsmNext, int64(pgsmRow+cb))
			ld := isa.New(isa.OpLdPGSM)
			ld.Addr, ld.Indirect = uint32(aBank), true
			ld.Addr2, ld.Indirect2 = uint32(aPgsm), true
			ld.SimbMask = k.simb
			k.emitTagged(ld, memTag{bank: k.bufTag(b), pgsm: stageNextTagBias + k.bufTag(b), vsm: -1})
		}
	}
}

// emitCompute unrolls the stage body: one vector evaluation per group
// of four output pixels (vectorize(xi, 4), Fig. 3c). The compute region
// is the full stored region under overlapped tiling and the bare core
// under halo exchange.
func (k *kern) emitCompute(sp *StagePlan) error {
	out := sp.Out
	for ly := sp.CoreY.Lo; ly <= sp.CoreY.Hi; ly++ {
		for lx := sp.CoreX.Lo; lx <= sp.CoreX.Hi; lx += 4 {
			var ln lanes
			for i := 0; i < 4; i++ {
				ln[i] = [2]int{lx + i, ly}
			}
			v, err := k.evalExpr(k.simplifyOf(sp.F), ln)
			if err != nil {
				return err
			}
			off, err := out.Addr(lx, ly)
			if err != nil {
				return err
			}
			aT := k.addA(k.baseReg[out], int64(off))
			st := isa.New(isa.OpStRF)
			st.Dst = v
			st.Addr, st.Indirect = uint32(aT), true
			st.SimbMask = k.simb
			k.emitTagged(st, memTag{bank: k.bufTag(out), pgsm: -1, vsm: -1})
		}
	}
	return nil
}

// evalExpr lowers one expression evaluated at the given lane
// coordinates, returning the DRF vreg holding the result vector.
func (k *kern) evalExpr(e halide.Expr, ln lanes) (int, error) {
	switch t := e.(type) {
	case halide.Const:
		return k.constVec(t.V), nil
	case halide.Bin:
		a, err := k.evalExpr(t.A, ln)
		if err != nil {
			return 0, err
		}
		b, err := k.evalExpr(t.B, ln)
		if err != nil {
			return 0, err
		}
		return k.comp(binOpALU[t.Op], a, b), nil
	case halide.Select:
		c, err := k.evalExpr(t.Cond, ln)
		if err != nil {
			return 0, err
		}
		a, err := k.evalExpr(t.Then, ln)
		if err != nil {
			return 0, err
		}
		b, err := k.evalExpr(t.Else, ln)
		if err != nil {
			return 0, err
		}
		// Arithmetic blend (matches the reference interpreter).
		ca := k.comp(isa.FMul, c, a)
		one := k.constVec(1)
		notc := k.comp(isa.FSub, one, c)
		cb := k.comp(isa.FMul, notc, b)
		return k.comp(isa.FAdd, ca, cb), nil
	case halide.Access:
		nl := ln.apply(t.CX, t.CY)
		if t.Func != nil && !k.isMaterialized(t.Func) {
			return k.evalExpr(k.simplifyOf(t.Func), nl)
		}
		var buf *BufPlan
		if t.Func == nil {
			buf = k.plan.Input
		} else {
			buf = k.plan.ByFunc[t.Func]
		}
		u := k.useOf[buf]
		if u == nil {
			return 0, fmt.Errorf("access to unplanned buffer %q", buf.Name)
		}
		return k.loadLanes(u, nl)
	case halide.Reduce:
		// Ordered accumulation into a private register: mov copies the
		// first term's bits exactly (no NaN renormalization — mov is an
		// integer-class op), then each following term folds in order.
		// A multiply term becomes one fmac; EvalF(FMac) is acc + a*b
		// with both roundings, bit-identical to the reference's
		// add-of-mul.
		first, err := k.evalExpr(t.Terms[0], ln)
		if err != nil {
			return 0, err
		}
		acc := k.comp(isa.Mov, first, first)
		for _, term := range t.Terms[1:] {
			if bin, ok := term.(halide.Bin); ok && bin.Op == halide.OpMul {
				a, err := k.evalExpr(bin.A, ln)
				if err != nil {
					return 0, err
				}
				b, err := k.evalExpr(bin.B, ln)
				if err != nil {
					return 0, err
				}
				k.compInto(isa.FMac, acc, a, b)
				continue
			}
			v, err := k.evalExpr(term, ln)
			if err != nil {
				return 0, err
			}
			k.compInto(isa.FAdd, acc, acc, v)
		}
		return acc, nil
	case halide.Tab:
		// Plan-time validation (checkTabs) guarantees the clamped
		// index is identical across the four lanes and invariant over
		// tiles; compute it per lane anyway and fail loudly if the
		// schedule ever violates that, then splat the pool constant.
		idx := -1
		for i := 0; i < 4; i++ {
			j := t.CX.Apply(ln[i][0]) + t.CY.Apply(ln[i][1])
			if j < 0 {
				j = 0
			}
			if j >= len(t.Vals) {
				j = len(t.Vals) - 1
			}
			if i == 0 {
				idx = j
			} else if j != idx {
				return 0, fmt.Errorf("tab index varies across lanes (%d vs %d)", idx, j)
			}
		}
		return k.constVec(t.Vals[idx]), nil
	}
	return 0, fmt.Errorf("unknown expr node %T", e)
}

func (k *kern) isMaterialized(f *halide.Func) bool {
	return k.plan.ByFunc[f] != nil
}

// simplifyOf returns the func's definition after the bit-exact-safe
// simplifier, cached per func.
func (k *kern) simplifyOf(f *halide.Func) halide.Expr {
	if e, ok := k.simplified[f]; ok {
		return e
	}
	e := halide.Simplify(f.E)
	k.simplified[f] = e
	return e
}

// loadLanes materializes a vector whose lane i holds buf[nl[i]]. A
// unit-stride row access becomes one (possibly unaligned) vector load;
// anything else becomes per-lane masked loads.
func (k *kern) loadLanes(u *UsePlan, nl lanes) (int, error) {
	b := u.Buf
	var addrs [4]uint32
	for i := 0; i < 4; i++ {
		var off uint32
		var err error
		if u.Staged {
			off, err = k.stagedAddr(u, nl[i][0], nl[i][1])
		} else {
			off, err = b.Addr(nl[i][0], nl[i][1])
		}
		if err != nil {
			return 0, err
		}
		addrs[i] = off
	}
	key := cseKey{b, addrs[0], addrs[1], addrs[2], addrs[3]}
	if r, ok := k.cse[key]; ok {
		return r, nil
	}
	base := k.baseReg[b]
	if u.Staged {
		base = k.pgsmBase
	}
	tag := memTag{bank: -1, pgsm: -1, vsm: -1}
	if u.Staged {
		tag.pgsm = k.bufTag(b)
	} else {
		tag.bank = k.bufTag(b)
	}
	d := k.newD()
	if addrs[1] == addrs[0]+4 && addrs[2] == addrs[0]+8 && addrs[3] == addrs[0]+12 {
		aT := k.addA(base, int64(addrs[0]))
		ld := isa.New(k.loadOp(u))
		ld.Dst = d
		ld.Addr, ld.Indirect = uint32(aT), true
		ld.SimbMask = k.simb
		k.emitTagged(ld, tag)
	} else {
		for l := 0; l < 4; l++ {
			aT := k.addA(base, int64(addrs[l])-int64(4*l))
			ld := isa.New(k.loadOp(u))
			ld.Dst = d
			ld.Addr, ld.Indirect = uint32(aT), true
			ld.VecMask = 1 << uint(l)
			ld.SimbMask = k.simb
			k.emitTagged(ld, tag)
		}
	}
	k.cse[key] = d
	return d, nil
}

func (k *kern) loadOp(u *UsePlan) isa.Opcode {
	if u.Staged {
		return isa.OpRdPGSM
	}
	return isa.OpLdRF
}

// stagedAddr maps producer-local coordinates to the PGSM-partition
// offset of the staged copy.
func (k *kern) stagedAddr(u *UsePlan, lx, ly int) (uint32, error) {
	b := u.Buf
	if lx < b.X.Lo || lx > b.X.Hi || ly < u.Y.Lo || ly > u.Y.Hi {
		return 0, fmt.Errorf("staged access (%d,%d) outside staged rows y%v of %s", lx, ly, u.Y, b.Name)
	}
	return u.PGSMOff + uint32(((ly-u.Y.Lo)*b.Width()+(lx-b.X.Lo))*4), nil
}
