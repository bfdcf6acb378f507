// Package compiler is iPIM's end-to-end compilation backend (paper
// Sec. V): it maps a halide.Pipeline with iPIM schedules onto SIMB
// programs. The flow mirrors the paper's Fig. 4:
//
//	bound inference → tile/layout plan (ipim_tile, Fig. 3a)
//	→ PGSM staging plan (load_pgsm, Fig. 3b/3c)
//	→ instruction lowering to virtual-register SIMB IR
//	→ register allocation (min | max policy)
//	→ memory order enforcement (optional dependency edges)
//	→ instruction reordering (Algorithm 1 list scheduling)
//	→ executable program + host data loader
//
// Every materialized buffer stores, per PE, halo-extended tiles sized
// by bound inference. Halos come from overlapped recompute (pure
// pipelines) or from the PGSM/VSM halo exchange (ClampedStages
// pipelines); see DESIGN.md §2 and exchange.go.
package compiler

import (
	"errors"
	"fmt"

	"ipim/internal/halide"
	"ipim/internal/sim"
)

// Typed plan-time validation errors. Callers match them with errors.Is;
// the wrapping message carries the offending geometry.
var (
	// ErrNonPow2Geometry rejects halo-exchange plans whose PE count or
	// per-stage core extents are not powers of two — the exchange
	// address arithmetic (exchange.go log2) is only defined there.
	ErrNonPow2Geometry = errors.New("power-of-two geometry required")
	// ErrTabIndex rejects pipelines whose Tab (constant-table) index
	// would vary across the vector lanes of a tile slot or depend on
	// the tile origin: the lowering splats one pool constant per
	// evaluation point, so the index must be slot-uniform and
	// tile-invariant.
	ErrTabIndex = errors.New("tab index not uniform under this schedule")
)

// Options selects the backend optimization configuration — exactly the
// grid of the paper's Fig. 12.
type Options struct {
	// RegAllocMax selects the "max" register allocation policy (scatter
	// registers to avoid false dependencies) instead of "min" (reuse as
	// few physical registers as possible).
	RegAllocMax bool
	// Reorder enables Algorithm 1 instruction reordering.
	Reorder bool
	// MemOrder enables memory order enforcement edges.
	MemOrder bool
}

// The paper's five compiler configurations (Sec. VII-E1).
var (
	Opt       = Options{RegAllocMax: true, Reorder: true, MemOrder: true}
	Baseline1 = Options{RegAllocMax: false, Reorder: false, MemOrder: false}
	Baseline2 = Options{RegAllocMax: false, Reorder: true, MemOrder: true}
	Baseline3 = Options{RegAllocMax: true, Reorder: false, MemOrder: true}
	Baseline4 = Options{RegAllocMax: true, Reorder: true, MemOrder: false}
)

// Name returns the paper's label for an options combination.
func (o Options) Name() string {
	switch o {
	case Opt:
		return "opt"
	case Baseline1:
		return "baseline1"
	case Baseline2:
		return "baseline2"
	case Baseline3:
		return "baseline3"
	case Baseline4:
		return "baseline4"
	}
	return fmt.Sprintf("custom(%v,%v,%v)", o.RegAllocMax, o.Reorder, o.MemOrder)
}

// BufPlan is the per-PE bank layout of one materialized buffer: each
// tile the PE owns occupies one fixed-size slot holding the buffer's
// halo-extended tile region.
type BufPlan struct {
	Name     string       // the producing stage's name, or "input"
	Producer *halide.Func // nil = pipeline input
	// SigmaX/SigmaY are the buffer's per-dimension domain scales
	// relative to the pipeline output domain (pyramid levels have
	// scales < 1; separable resampling stages scale one dimension at a
	// time).
	SigmaX, SigmaY halide.Scale
	// X, Y is the stored region in tile-local producer-domain
	// coordinates. X is padded so the width is a multiple of the SIMD
	// vector length.
	X, Y halide.Interval
	// NeedX/NeedY is the pre-padding stored region (what consumers
	// actually read); padding cells beyond it are never consumed.
	NeedX, NeedY halide.Interval
	// Base/Slot locate tile k's region at Base + k*Slot in every bank.
	Base, Slot uint32

	// Exchange-mode geometry (halo exchange through the VSM; see
	// DESIGN.md §2). CoreW/CoreH is the per-tile computed core; StripH
	// is the published horizontal strip depth (0 = no horizontal halo).
	CoreW, CoreH int
	StripH       int // strip depth; see above

	// ViaPGSM enables the PG-level fast path: strips are additionally
	// published into each PE's PGSM partition (at StripPGSMBase,
	// indexed by loop slot) so the 3-of-4 horizontal neighbors that
	// share a process group exchange halos through the scratchpad
	// instead of the TSV-serialized VSM (paper Fig. 3 data sharing).
	ViaPGSM       bool
	StripPGSMBase uint32 // partition offset of the published strips
}

// StripBytes is the per-tile published strip footprint in the VSM.
func (b *BufPlan) StripBytes() int { return 2 * b.StripH * b.CoreH * 4 }

// HasHalo reports whether the stored region extends beyond the core.
func (b *BufPlan) HasHalo() bool {
	return b.NeedX.Lo < 0 || b.NeedX.Hi >= b.CoreW || b.NeedY.Lo < 0 || b.NeedY.Hi >= b.CoreH
}

// Width returns the padded row width in elements.
func (b *BufPlan) Width() int { return b.X.Len() }

// Addr returns the in-slot byte offset of producer-local (lx, ly).
func (b *BufPlan) Addr(lx, ly int) (uint32, error) {
	if lx < b.X.Lo || lx > b.X.Hi || ly < b.Y.Lo || ly > b.Y.Hi {
		return 0, fmt.Errorf("compiler: access (%d,%d) outside stored region x%v y%v of %s",
			lx, ly, b.X, b.Y, b.Name)
	}
	return uint32(((ly-b.Y.Lo)*b.Width() + (lx - b.X.Lo)) * 4), nil
}

// UsePlan describes one stage's consumption of one buffer.
type UsePlan struct {
	Buf *BufPlan // the buffer read
	// X, Y is the region (producer-local) the stage reads per tile.
	X, Y halide.Interval
	// PGSM staging: when Staged, rows Y of the buffer (full padded
	// width) are copied into the PE's PGSM partition at PGSMOff before
	// the tile's compute.
	Staged  bool
	PGSMOff uint32 // PGSM partition offset of the staged rows
}

// StagePlan is one compute_root kernel.
type StagePlan struct {
	F   *halide.Func // the stage's function
	Out *BufPlan     // the buffer the stage writes
	// CoreX/CoreY is the per-tile compute region: the full stored
	// region under overlapped tiling, the bare core under halo
	// exchange.
	CoreX, CoreY halide.Interval
	Uses         []UsePlan // one per buffer the stage reads
	// Publish marks exchange-mode stages whose output halo is
	// exchanged (publish strips + fill) after the tile loop.
	Publish bool
	// PGSMWanted records that load_pgsm was requested; Staged flags on
	// uses tell whether each region actually fit the PGSM partition.
	PGSMWanted bool
	// StageAhead marks the multi-array (MASIM-style) schedule for this
	// stage: the PGSM partition is split into a ping/pong double
	// buffer of StageBytes each, and the lowering stages tile k+1's
	// operands into the idle half while tile k computes out of the
	// active half. Set by finishPlan when Pipeline.MultiArray is on
	// and the geometry allows it (overlapped mode, >1 tile per PE,
	// staged operands fitting twice in the partition).
	StageAhead bool
	// StageBytes is the per-buffer footprint of one staging half.
	StageBytes uint32
}

// ArrayPlan models one PE array of a vault explicitly: one process
// group's PEs operating in lock step against a shared PGSM. The
// multi-array schedule reasons about these arrays as independent
// staging/compute pipelines — while array A's PEs compute, its DRAM
// controllers prefetch the next tile's operands into the other PGSM
// half, and the other arrays do the same out of phase.
type ArrayPlan struct {
	// PG is the array's process-group index within its vault.
	PG int
	// PEs is the number of PEs in the array (lock-step SIMB lanes).
	PEs int
	// PGSMBytes is the per-PE PGSM partition size in bytes.
	PGSMBytes int
	// Buffers is the staging depth per partition: 2 when the
	// stage-ahead schedule double-buffers operands, 1 otherwise.
	Buffers int
}

// Plan is the complete mapping of a pipeline onto the machine.
type Plan struct {
	Cfg  *sim.Config      // the machine compiled for
	Pipe *halide.Pipeline // the pipeline compiled

	ImgW, ImgH int // input dimensions
	OutW, OutH int // output dimensions

	TilesX, TilesY int // output tile grid
	TilesPerPE     int // tiles each participating PE owns
	NumPEs         int // machine-wide PEs participating

	Stages []*StagePlan // materialized stages, producer first
	Input  *BufPlan     // the pipeline input's layout
	// OutBuf is the final stage's buffer (what ReadOutput gathers);
	// nil for histogram pipelines.
	OutBuf *BufPlan
	ByFunc map[*halide.Func]*BufPlan // every stage's buffer by function

	// Exchange marks halo-exchange mode (ClampedStages pipelines on a
	// single-vault machine); see planExchange.
	Exchange bool

	// Arrays models the per-vault PE arrays (one entry per process
	// group) the schedule runs on; every vault is identical. Buffers
	// is 2 when any stage runs the stage-ahead schedule.
	Arrays []ArrayPlan

	// SpillBase is the start of the register-spill area in each bank.
	SpillBase uint32
	// Histogram pipeline layout: per-PE partial histogram, PG-merged
	// partials (on PE0 banks), the vault total (on PE0 of PG0), and —
	// for multi-vault machines — the machine-global total assembled by
	// the leader vault through req (on vault 0's PE(0,0)).
	HistLocal, HistPG, HistFinal, HistGlobal uint32
	// ConstBase is the constant pool location (host-loaded).
	ConstBase uint32
	// Consts lists pool values; constant i lives at ConstBase + 16*i,
	// broadcast across the four lanes.
	Consts []float32
}

// padX widens an interval so its length is a multiple of the vector
// length, extending the high end.
func padX(iv halide.Interval) halide.Interval {
	for iv.Len()%4 != 0 {
		iv.Hi++
	}
	return iv
}

// NewPlan runs bound inference and lays out every buffer for the given
// machine configuration and input image size.
func NewPlan(cfg *sim.Config, pipe *halide.Pipeline, imgW, imgH int) (*Plan, error) {
	if pipe.Histogram {
		return newHistogramPlan(cfg, pipe, imgW, imgH)
	}
	stages, err := pipe.Stages()
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Cfg: cfg, Pipe: pipe,
		ImgW: imgW, ImgH: imgH,
		OutW:   imgW * pipe.OutNum / pipe.OutDen,
		OutH:   imgH * pipe.OutNum / pipe.OutDen,
		ByFunc: map[*halide.Func]*BufPlan{},
		NumPEs: cfg.TotalPEs(),
	}
	tw, th := pipe.TileW, pipe.TileH
	if tw%4 != 0 || tw <= 0 || th <= 0 {
		return nil, fmt.Errorf("compiler: ipim_tile %dx%d: width must be a positive multiple of %d", tw, th, 4)
	}
	if p.OutW%tw != 0 || p.OutH%th != 0 {
		return nil, fmt.Errorf("compiler: output %dx%d not divisible into %dx%d tiles", p.OutW, p.OutH, tw, th)
	}
	p.TilesX, p.TilesY = p.OutW/tw, p.OutH/th
	tiles := p.TilesX * p.TilesY
	if tiles%p.NumPEs != 0 {
		return nil, fmt.Errorf("compiler: %d tiles not divisible across %d PEs", tiles, p.NumPEs)
	}
	p.TilesPerPE = tiles / p.NumPEs

	isMat := func(f *halide.Func) bool {
		return f.IsComputeRoot() || f == pipe.Output
	}

	if pipe.ClampedStages {
		if err := p.planExchange(stages, isMat); err != nil {
			return nil, err
		}
	} else if err := p.planOverlapped(stages, isMat); err != nil {
		return nil, err
	}

	if err := p.finishPlan(stages, isMat); err != nil {
		return nil, err
	}
	return p, nil
}

// planOverlapped computes stored regions for overlapped tiling: every
// buffer carries the cumulative halo of the downstream pipeline and
// halo values are recomputed locally (pure function semantics).
func (p *Plan) planOverlapped(stages []*halide.Func, isMat func(*halide.Func) bool) error {
	pipe := p.Pipe
	tw, th := pipe.TileW, pipe.TileH
	// Stored regions, computed backwards from the output stage. The
	// output's stored region is the bare tile.
	one := halide.Scale{Num: 1, Den: 1}
	outBuf := &BufPlan{
		Name:     stages[len(stages)-1].Name,
		Producer: stages[len(stages)-1],
		SigmaX:   one,
		SigmaY:   one,
		X:        padX(halide.Interval{Lo: 0, Hi: tw - 1}),
		Y:        halide.Interval{Lo: 0, Hi: th - 1},
	}
	p.ByFunc[outBuf.Producer] = outBuf

	for si := len(stages) - 1; si >= 0; si-- {
		s := stages[si]
		sb, ok := p.ByFunc[s]
		if !ok {
			return fmt.Errorf("compiler: stage %q has no consumers", s.Name)
		}
		// All consumers (later stages) have contributed their unions by
		// now; lock in the vector padding before computing what this
		// stage needs to produce the padded region.
		sb.X = padX(sb.X)
		uses, err := halide.StageRequirements(s, sb.X, sb.Y, isMat)
		if err != nil {
			return err
		}
		for _, u := range uses {
			sigmaX, sigmaY := sb.SigmaX.Times(u.SX), sb.SigmaY.Times(u.SY)
			// Power-of-two alignment requirement (DESIGN.md): tile
			// origins scaled into the producer domain stay integral.
			if (tw*sigmaX.Num)%sigmaX.Den != 0 || (th*sigmaY.Num)%sigmaY.Den != 0 {
				return fmt.Errorf("compiler: stage %q: tile %dx%d misaligned with producer scale %v/%v", s.Name, tw, th, sigmaX, sigmaY)
			}
			if err := p.accumulateUse(u, sigmaX, sigmaY); err != nil {
				return err
			}
		}
	}
	if p.Input == nil {
		return fmt.Errorf("compiler: pipeline %q never reads its input", pipe.Name)
	}
	// Overlapped mode: compute region = full stored region; record the
	// pre-padding requirement, then pad.
	for _, b := range p.allBuffers(stages) {
		b.NeedX, b.NeedY = b.X, b.Y
		b.X = padX(b.X)
		b.CoreW, b.CoreH = b.X.Len(), b.Y.Len()
	}
	return nil
}

// accumulateUse merges one stage requirement into the target buffer's
// plan, creating it on first use.
func (p *Plan) accumulateUse(u halide.BufUse, sigmaX, sigmaY halide.Scale) error {
	if u.Buf == nil {
		if p.Input == nil {
			p.Input = &BufPlan{Name: "input", SigmaX: sigmaX, SigmaY: sigmaY, X: u.X, Y: u.Y}
			return nil
		}
		if p.Input.SigmaX != sigmaX || p.Input.SigmaY != sigmaY {
			return fmt.Errorf("compiler: input read at mixed scales")
		}
		p.Input.X = p.Input.X.Union(u.X)
		p.Input.Y = p.Input.Y.Union(u.Y)
		return nil
	}
	ub, ok := p.ByFunc[u.Buf]
	if !ok {
		p.ByFunc[u.Buf] = &BufPlan{Name: u.Buf.Name, Producer: u.Buf, SigmaX: sigmaX, SigmaY: sigmaY, X: u.X, Y: u.Y}
		return nil
	}
	if ub.SigmaX != sigmaX || ub.SigmaY != sigmaY {
		return fmt.Errorf("compiler: buffer %q read at mixed scales", u.Buf.Name)
	}
	ub.X = ub.X.Union(u.X)
	ub.Y = ub.Y.Union(u.Y)
	return nil
}

// allBuffers lists the input plus every stage buffer (input first).
func (p *Plan) allBuffers(stages []*halide.Func) []*BufPlan {
	out := []*BufPlan{p.Input}
	for _, s := range stages {
		if b := p.ByFunc[s]; b != nil {
			out = append(out, b)
		}
	}
	return out
}

// planExchange computes stored regions for halo-exchange mode
// (ClampedStages pipelines): every stage computes only its core tile;
// halos of intermediate buffers are filled from neighbor tiles through
// the VSM after a barrier (paper Sec. IV-E data sharing). Preconditions
// are validated here; see DESIGN.md §2.
func (p *Plan) planExchange(stages []*halide.Func, isMat func(*halide.Func) bool) error {
	pipe := p.Pipe
	cfg := p.Cfg
	tw, th := pipe.TileW, pipe.TileH
	n := p.NumPEs
	if cfg.TotalVaults() != 1 {
		return fmt.Errorf("compiler: halo-exchange pipelines require a single-vault machine (have %d vaults); see DESIGN.md", cfg.TotalVaults())
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("compiler: halo exchange requires a power-of-two PE count, have %d: %w", n, ErrNonPow2Geometry)
	}
	if p.TilesX%n != 0 {
		return fmt.Errorf("compiler: halo exchange requires TilesX (%d) divisible by the PE count (%d)", p.TilesX, n)
	}
	scales, err := pipe.StageScales()
	if err != nil {
		return err
	}
	// Create buffers with core geometry.
	for _, s := range stages {
		sc := scales[s]
		coreW := tw * sc[0].Num / sc[0].Den
		coreH := th * sc[1].Num / sc[1].Den
		if coreW < 4 || coreW&(coreW-1) != 0 || coreH < 1 || coreH&(coreH-1) != 0 {
			return fmt.Errorf("compiler: stage %q core %dx%d must be power-of-two (width >= 4): %w", s.Name, coreW, coreH, ErrNonPow2Geometry)
		}
		core := halide.Interval{Lo: 0, Hi: coreW - 1}
		coreY := halide.Interval{Lo: 0, Hi: coreH - 1}
		p.ByFunc[s] = &BufPlan{
			Name: s.Name, Producer: s,
			SigmaX: sc[0], SigmaY: sc[1],
			X: core, Y: coreY,
			CoreW: coreW, CoreH: coreH,
		}
	}
	// Union consumer requirements (computed over cores) into producers.
	for _, s := range stages {
		sb := p.ByFunc[s]
		uses, err := halide.StageRequirements(s,
			halide.Interval{Lo: 0, Hi: sb.CoreW - 1},
			halide.Interval{Lo: 0, Hi: sb.CoreH - 1}, isMat)
		if err != nil {
			return err
		}
		for _, u := range uses {
			sigmaX, sigmaY := sb.SigmaX.Times(u.SX), sb.SigmaY.Times(u.SY)
			if err := p.accumulateUse(u, sigmaX, sigmaY); err != nil {
				return err
			}
		}
	}
	if p.Input == nil {
		return fmt.Errorf("compiler: pipeline %q never reads its input", pipe.Name)
	}
	p.Input.NeedX, p.Input.NeedY = p.Input.X, p.Input.Y
	p.Input.X = padX(p.Input.X)
	p.Input.CoreW, p.Input.CoreH = p.Input.X.Len(), p.Input.Y.Len()
	for _, s := range stages {
		b := p.ByFunc[s]
		b.NeedX, b.NeedY = b.X, b.Y
		b.X = padX(b.X)
		b.StripH = 0
		if -b.NeedX.Lo > b.StripH {
			b.StripH = -b.NeedX.Lo
		}
		if h := b.NeedX.Hi - (b.CoreW - 1); h > b.StripH {
			b.StripH = h
		}
		if 2*b.StripH > b.CoreW {
			return fmt.Errorf("compiler: buffer %q horizontal halo %d exceeds half its %d-wide core", b.Name, b.StripH, b.CoreW)
		}
		if b.HasHalo() {
			tiles := p.TilesX * p.TilesY
			if need := tiles * b.StripBytes(); need > cfg.VSMBytes {
				return fmt.Errorf("compiler: buffer %q needs %d strip bytes in a %d-byte VSM", b.Name, need, cfg.VSMBytes)
			}
		}
	}
	p.Exchange = true
	return nil
}

// finishPlan assigns bank addresses and builds the stage plans.
func (p *Plan) finishPlan(stages []*halide.Func, isMat func(*halide.Func) bool) error {
	cfg := p.Cfg
	// Assign bank addresses: constant pool first, then buffers, then
	// the spill area.
	p.ConstBase = 0
	cursor := uint32(4096) // up to 256 pool constants
	alloc := func(b *BufPlan) error {
		b.Base = cursor
		b.Slot = uint32(align16(b.Width() * b.Y.Len() * 4))
		sz := b.Slot * uint32(p.TilesPerPE)
		cursor += sz
		if int(cursor) > p.Cfg.BankBytes {
			return fmt.Errorf("compiler: bank overflow: %d bytes needed for %s", cursor, b.Name)
		}
		return nil
	}
	if err := alloc(p.Input); err != nil {
		return err
	}
	for _, s := range stages {
		if err := alloc(p.ByFunc[s]); err != nil {
			return err
		}
	}
	p.SpillBase = cursor

	// Build stage plans with PGSM staging assignments.
	partition := cfg.PGSMBytes / cfg.PEsPerPG
	for _, s := range stages {
		sp := &StagePlan{F: s, Out: p.ByFunc[s], PGSMWanted: s.IsLoadPGSM()}
		if p.Exchange {
			sp.CoreX = halide.Interval{Lo: 0, Hi: sp.Out.CoreW - 1}
			sp.CoreY = halide.Interval{Lo: 0, Hi: sp.Out.CoreH - 1}
			sp.Publish = sp.Out.HasHalo()
		} else {
			sp.CoreX, sp.CoreY = sp.Out.X, sp.Out.Y
		}
		uses, err := halide.StageRequirements(s, sp.CoreX, sp.CoreY, isMat)
		if err != nil {
			return err
		}
		pgsmCursor := uint32(0)
		anyStaged := false
		for _, u := range uses {
			var ub *BufPlan
			if u.Buf == nil {
				ub = p.Input
			} else {
				ub = p.ByFunc[u.Buf]
			}
			up := UsePlan{Buf: ub, X: u.X, Y: u.Y}
			if sp.PGSMWanted {
				// Staged bytes: full padded width x used rows.
				sz := uint32(ub.Width() * u.Y.Len() * 4)
				if pgsmCursor+sz <= uint32(partition) {
					up.Staged = true
					up.PGSMOff = pgsmCursor
					pgsmCursor += sz
					anyStaged = true
				}
			}
			sp.Uses = append(sp.Uses, up)
		}
		// Multi-array stage-ahead schedule: double-buffer the staged
		// operands so tile k+1's staging overlaps tile k's compute.
		// Requires overlapped mode (exchange-mode barriers serialize
		// tiles anyway), a loop to hide latency in, and room for two
		// staging halves in the partition.
		if p.Pipe.MultiArray && !p.Exchange && p.TilesPerPE > 1 &&
			anyStaged && 2*pgsmCursor <= uint32(partition) {
			sp.StageAhead = true
			sp.StageBytes = pgsmCursor
		}
		// PG-level strip fast path: the strips of every loop slot must
		// fit the PGSM partition above this stage's staging region.
		if sp.Publish && sp.Out.StripH > 0 {
			strips := sp.Out.StripBytes() * p.TilesPerPE
			if int(pgsmCursor)+strips <= partition {
				sp.Out.ViaPGSM = true
				sp.Out.StripPGSMBase = uint32(partition - strips)
			}
		}
		p.Stages = append(p.Stages, sp)
	}
	p.OutBuf = p.Stages[len(p.Stages)-1].Out

	// Validate constant-table indices against the chosen schedule. A
	// stage whose output domain does not scale with y computes the
	// same tile-local y range in every tile, so its tabs are tile-
	// invariant even under multi-row tilings.
	for _, sp := range p.Stages {
		yFree := p.TilesY == 1 || sp.Out.SigmaY.Num == 0
		if err := p.checkTabs(sp.F.E, sp.F.Name, isMat, yFree, true, true); err != nil {
			return err
		}
	}

	// Model the per-vault PE arrays the schedule runs on.
	buffers := 1
	for _, sp := range p.Stages {
		if sp.StageAhead {
			buffers = 2
		}
	}
	p.Arrays = make([]ArrayPlan, cfg.PGsPerVault)
	for pg := range p.Arrays {
		p.Arrays[pg] = ArrayPlan{PG: pg, PEs: cfg.PEsPerPG, PGSMBytes: partition, Buffers: buffers}
	}
	return nil
}

// checkTabs walks a stage expression (recursing through inlined funcs,
// composing coordinate dependence) and rejects Tab nodes whose index
// would not be slot-uniform and tile-invariant under the plan's tiling.
// yFree reports that tile-local y equals global y for this stage;
// xDep/yDep report whether the current subtree's coordinates still vary
// with the stage's tile-local x/y.
func (p *Plan) checkTabs(e halide.Expr, stage string, isMat func(*halide.Func) bool, yFree, xDep, yDep bool) error {
	switch t := e.(type) {
	case halide.Const:
		return nil
	case halide.Access:
		if t.Func == nil || isMat(t.Func) {
			return nil
		}
		return p.checkTabs(t.Func.E, stage, isMat, yFree, xDep && t.CX.Scale != 0, yDep && t.CY.Scale != 0)
	case halide.Bin:
		if err := p.checkTabs(t.A, stage, isMat, yFree, xDep, yDep); err != nil {
			return err
		}
		return p.checkTabs(t.B, stage, isMat, yFree, xDep, yDep)
	case halide.Select:
		for _, sub := range []halide.Expr{t.Cond, t.Then, t.Else} {
			if err := p.checkTabs(sub, stage, isMat, yFree, xDep, yDep); err != nil {
				return err
			}
		}
		return nil
	case halide.Reduce:
		for _, term := range t.Terms {
			if err := p.checkTabs(term, stage, isMat, yFree, xDep, yDep); err != nil {
				return err
			}
		}
		return nil
	case halide.Tab:
		// The four SIMD lanes of a slot span consecutive x, so any
		// x-dependence breaks slot uniformity outright. Tiling along x
		// would additionally shift the index per tile.
		if xDep && t.CX.Scale != 0 {
			return fmt.Errorf("compiler: stage %q: tab index depends on x: %w", stage, ErrTabIndex)
		}
		// A y-dependent index is only global-coordinate-correct when
		// tile-local y equals global y (one tile row, or an output
		// domain that does not scale with y).
		if yDep && t.CY.Scale != 0 && !yFree {
			return fmt.Errorf("compiler: stage %q: tab index depends on y but TilesY=%d: %w", stage, p.TilesY, ErrTabIndex)
		}
		return nil
	}
	return fmt.Errorf("compiler: unknown expr node %T in stage %q", e, stage)
}

func align16(n int) int { return (n + 15) &^ 15 }

// TileOrigin returns the output-domain origin of tile t (row-major).
func (p *Plan) TileOrigin(t int) (ox, oy int) {
	return (t % p.TilesX) * p.Pipe.TileW, (t / p.TilesX) * p.Pipe.TileH
}

// TileOf returns the tile index owned by global PE g at slot k
// (interleaved distribution, Fig. 3a).
func (p *Plan) TileOf(g, k int) int { return k*p.NumPEs + g }

// ConstIndex interns a constant into the pool and returns its index.
func (p *Plan) ConstIndex(v float32) int {
	for i, c := range p.Consts {
		if c == v {
			return i
		}
	}
	p.Consts = append(p.Consts, v)
	if len(p.Consts) > 256 {
		panic("compiler: constant pool overflow (>256 entries)")
	}
	return len(p.Consts) - 1
}

// ConstAddr returns the bank address of pool constant i.
func (p *Plan) ConstAddr(i int) uint32 { return p.ConstBase + uint32(16*i) }
