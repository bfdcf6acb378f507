// Package halide is the programming frontend of iPIM (paper Sec. V): a
// small Halide-style DSL in which image-processing algorithms are
// written as pure functions over (x, y), decoupled from the schedule
// that maps them onto the accelerator. It provides the paper's two new
// schedule primitives — ipim_tile() and load_pgsm() — plus the existing
// compute_root() and vectorize() Halide schedules, bound inference for
// overlapped tiling, and a reference interpreter used as the golden
// model for every workload.
package halide

import (
	"fmt"
	"math"
)

// BinOp enumerates the arithmetic forms the DSL supports. They map 1:1
// onto the SIMB comp ops the backend emits.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMin
	OpMax
	OpLT // 1.0 if a < b else 0.0
)

func (o BinOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpLT:
		return "<"
	}
	return "?"
}

// Coord is a coordinate transform applied to one dimension of an
// access: value = (Scale*v + Offset) / Div with floor division. Div
// must be positive; Scale/Div cover the identity, stencil offsets,
// downsampling (x/2) and upsampling strides (2x) the paper's Table II
// pipelines use.
type Coord struct {
	Scale  int
	Offset int
	Div    int
}

// C returns the identity transform with offset o: v + o.
func C(o int) Coord { return Coord{Scale: 1, Offset: o, Div: 1} }

// CScale returns (s*v + o) / d.
func CScale(s, o, d int) Coord { return Coord{Scale: s, Offset: o, Div: d} }

// Apply evaluates the transform at v.
func (c Coord) Apply(v int) int { return floorDiv(c.Scale*v+c.Offset, c.Div) }

// floorDiv is division rounding toward negative infinity.
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Expr is a node of the algorithm AST.
type Expr interface {
	isExpr()
}

// Const is a floating-point literal.
type Const struct{ V float32 }

// Access reads a producer Func (or the pipeline input when Func is nil)
// at transformed coordinates.
type Access struct {
	Func   *Func // nil => pipeline input
	CX, CY Coord
}

// Bin combines two sub-expressions.
type Bin struct {
	Op   BinOp
	A, B Expr
}

// Select is if-then-else on a {0,1}-valued condition. The backend
// lowers it to the arithmetic blend cond*then + (1-cond)*else, which is
// exact for 0/1 conditions.
type Select struct {
	Cond, Then, Else Expr
}

// Reduce is the DSL's reduction-domain construct: the ordered sum of
// its terms, accumulated left to right. The reference interpreter and
// the backend both evaluate Terms[0] first and then add each following
// term into the accumulator in order, so cycle simulation, functional
// mode and the golden model agree bit-for-bit (float addition is not
// associative; the order is part of the semantics). Terms is never
// empty. Build one with Sum.
type Reduce struct {
	Terms []Expr
}

// Tab is a compile-time constant table indexed by the transformed
// coordinates: value = Vals[clamp(CX(x) + CY(y), 0, len(Vals)-1)].
// DNN workloads use it to attach weight matrices and bias vectors to a
// pipeline without burning an input-image plane per constant. The
// backend requires the index to be uniform across the vector lanes of
// a tile slot (checked at plan time), which every y-indexed table
// (CX.Scale == 0) satisfies under full-height tiling.
type Tab struct {
	Vals   []float32
	CX, CY Coord
}

func (Const) isExpr()  {}
func (Access) isExpr() {}
func (Bin) isExpr()    {}
func (Select) isExpr() {}
func (Reduce) isExpr() {}
func (Tab) isExpr()    {}

// At evaluates the table at (x, y) with clamped indexing: the host-side
// mirror of the backend lowering, shared by golden references.
func (t Tab) At(x, y int) float32 {
	i := t.CX.Apply(x) + t.CY.Apply(y)
	if i < 0 {
		i = 0
	}
	if i >= len(t.Vals) {
		i = len(t.Vals) - 1
	}
	return t.Vals[i]
}

// Convenience constructors.

// K wraps a literal.
func K(v float32) Expr { return Const{V: v} }

// Add, Sub, Mul, Div, Min, Max, LT build binary nodes.
func Add(a, b Expr) Expr { return Bin{OpAdd, a, b} }
func Sub(a, b Expr) Expr { return Bin{OpSub, a, b} }
func Mul(a, b Expr) Expr { return Bin{OpMul, a, b} }
func Div(a, b Expr) Expr { return Bin{OpDiv, a, b} }
func Min(a, b Expr) Expr { return Bin{OpMin, a, b} }
func Max(a, b Expr) Expr { return Bin{OpMax, a, b} }
func LT(a, b Expr) Expr  { return Bin{OpLT, a, b} }

// Clamp bounds a into [lo, hi].
func Clamp(a Expr, lo, hi float32) Expr { return Min(Max(a, K(lo)), K(hi)) }

// Sel builds a Select node.
func Sel(cond, then, els Expr) Expr { return Select{cond, then, els} }

// Sum builds a Reduce over a rw x rh reduction domain, materializing
// body(rx, ry) for every point row-major (ry outer, rx inner). The
// accumulation order is that materialization order. Panics on an empty
// domain: a reduction must have at least one term.
func Sum(rw, rh int, body func(rx, ry int) Expr) Expr {
	if rw <= 0 || rh <= 0 {
		panic(fmt.Sprintf("halide: Sum over empty %dx%d reduction domain", rw, rh))
	}
	terms := make([]Expr, 0, rw*rh)
	for ry := 0; ry < rh; ry++ {
		for rx := 0; rx < rw; rx++ {
			terms = append(terms, body(rx, ry))
		}
	}
	return Reduce{Terms: terms}
}

// NewTab builds a constant table node. vals must be non-empty.
func NewTab(vals []float32, cx, cy Coord) Expr {
	if len(vals) == 0 {
		panic("halide: NewTab with no values")
	}
	return Tab{Vals: vals, CX: cx, CY: cy}
}

// Func is one pipeline stage: a name, a defining expression, and its
// schedule directives.
type Func struct {
	Name string
	E    Expr

	// Schedule.
	computeRoot bool
	loadPGSM    bool
}

// NewFunc declares a Func. Define must be called before use.
func NewFunc(name string) *Func { return &Func{Name: name} }

// Define sets the pure definition f(x, y) = e.
func (f *Func) Define(e Expr) *Func {
	f.E = e
	return f
}

// ComputeRoot marks the Func as materialized (its own kernel; paper:
// each compute_root implies a kernel reading and writing DRAM banks).
// Funcs without ComputeRoot are inlined into their consumers.
func (f *Func) ComputeRoot() *Func {
	f.computeRoot = true
	return f
}

// LoadPGSM requests staging this stage's input regions through the
// process-group scratchpad (the paper's load_pgsm(xi, yi) schedule).
func (f *Func) LoadPGSM() *Func {
	f.loadPGSM = true
	return f
}

// SetLoadPGSM sets or clears PGSM staging explicitly. The schedule
// auto-tuner uses it to explore both sides of the load_pgsm directive
// on pipelines whose builders already chose one.
func (f *Func) SetLoadPGSM(on bool) *Func {
	f.loadPGSM = on
	return f
}

// IsComputeRoot reports whether the Func is materialized.
func (f *Func) IsComputeRoot() bool { return f.computeRoot }

// IsLoadPGSM reports whether the stage stages inputs through PGSM.
func (f *Func) IsLoadPGSM() bool { return f.loadPGSM }

// At reads the Func at (x+dx, y+dy): the common stencil access.
func (f *Func) At(dx, dy int) Expr { return Access{Func: f, CX: C(dx), CY: C(dy)} }

// AtC reads the Func with explicit coordinate transforms.
func (f *Func) AtC(cx, cy Coord) Expr { return Access{Func: f, CX: cx, CY: cy} }

// In reads the pipeline input at (x+dx, y+dy).
func In(dx, dy int) Expr { return Access{Func: nil, CX: C(dx), CY: C(dy)} }

// InC reads the pipeline input with explicit coordinate transforms.
func InC(cx, cy Coord) Expr { return Access{Func: nil, CX: cx, CY: cy} }

// Pipeline is a complete algorithm plus its iPIM schedule.
type Pipeline struct {
	Name   string
	Output *Func

	// TileW/TileH are the paper's ipim_tile(x, y, xi, yi, W, H)
	// schedule: the output is partitioned into TileW x TileH tiles
	// distributed across all PEs (Fig. 3a).
	TileW, TileH int

	// ClampedStages selects clamped-boundary semantics for
	// materialized intermediate buffers: a consumer reading a
	// compute_root producer outside its domain gets the edge value
	// (Halide's BoundaryConditions applied per materialized Func).
	// Multi-stage iPIM pipelines use this so tile halos can be
	// exchanged between PEs instead of recomputed (DESIGN.md §2).
	ClampedStages bool

	// OutNum/OutDen relate output dimensions to input dimensions:
	// outW = inW * OutNum / OutDen (2/1 for upsampling pipelines, 1/2
	// for downsampling ones, 1/1 otherwise).
	OutNum, OutDen int

	// Histogram marks the special reduction pipeline (paper Table II);
	// it uses the built-in partial-histogram schedule instead of the
	// pointwise/stencil lowering. Bins is the histogram size.
	Histogram bool
	Bins      int

	// MultiArray requests the MASIM-style multi-array schedule: the
	// planner models each PE array's PGSM partition as a double buffer
	// and the lowering overlaps next-tile operand staging with current-
	// tile compute. The compiler falls back to the baseline list
	// schedule when the geometry does not allow it (see
	// compiler.Plan.Arrays).
	MultiArray bool
}

// NewPipeline builds a pipeline with the default 8x8 ipim_tile
// schedule (Listing 1).
func NewPipeline(name string, out *Func) *Pipeline {
	return &Pipeline{Name: name, Output: out, TileW: 8, TileH: 8, OutNum: 1, OutDen: 1}
}

// OutScale declares the output-to-input size ratio (see OutNum/OutDen).
func (p *Pipeline) OutScale(num, den int) *Pipeline {
	p.OutNum, p.OutDen = num, den
	return p
}

// ClampStages enables clamped-boundary semantics for materialized
// stages (see ClampedStages).
func (p *Pipeline) ClampStages() *Pipeline {
	p.ClampedStages = true
	return p
}

// MultiArraySchedule sets or clears the multi-array (stage-ahead)
// schedule. The schedule auto-tuner uses it as a search axis.
func (p *Pipeline) MultiArraySchedule(on bool) *Pipeline {
	p.MultiArray = on
	return p
}

// StageScales returns every materialized stage's per-dimension domain
// scale relative to the pipeline output domain.
func (p *Pipeline) StageScales() (map[*Func][2]Scale, error) {
	stages, err := p.Stages()
	if err != nil {
		return nil, err
	}
	isMat := func(f *Func) bool { return f.IsComputeRoot() || f == p.Output }
	one := Scale{1, 1}
	scales := map[*Func][2]Scale{stages[len(stages)-1]: {one, one}}
	for si := len(stages) - 1; si >= 0; si-- {
		s := stages[si]
		own, ok := scales[s]
		if !ok {
			return nil, fmt.Errorf("halide: stage %q has no consumers", s.Name)
		}
		uses, err := StageRequirements(s, Interval{0, 1}, Interval{0, 1}, isMat)
		if err != nil {
			return nil, err
		}
		for _, u := range uses {
			if u.Buf == nil {
				continue
			}
			sx, sy := own[0].Times(u.SX), own[1].Times(u.SY)
			if prev, ok := scales[u.Buf]; ok {
				if prev != [2]Scale{sx, sy} {
					return nil, fmt.Errorf("halide: stage %q read at mixed scales", u.Buf.Name)
				}
				continue
			}
			scales[u.Buf] = [2]Scale{sx, sy}
		}
	}
	return scales, nil
}

// IPIMTile overrides the tile size.
func (p *Pipeline) IPIMTile(w, h int) *Pipeline {
	p.TileW, p.TileH = w, h
	return p
}

// Stages returns the materialized stages in dependency (producer-first)
// order, ending with Output. The output stage is materialized whether
// or not ComputeRoot was called explicitly.
func (p *Pipeline) Stages() ([]*Func, error) {
	var order []*Func
	state := map[*Func]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(f *Func) error
	visit = func(f *Func) error {
		switch state[f] {
		case 1:
			return fmt.Errorf("halide: cycle through func %q", f.Name)
		case 2:
			return nil
		}
		state[f] = 1
		if f.E == nil {
			return fmt.Errorf("halide: func %q has no definition", f.Name)
		}
		err := walkAccesses(f.E, func(a Access) error {
			if a.Func == nil {
				return nil
			}
			return visit(a.Func)
		})
		if err != nil {
			return err
		}
		state[f] = 2
		if f.computeRoot || f == p.Output {
			order = append(order, f)
		}
		return nil
	}
	if p.Output == nil {
		return nil, fmt.Errorf("halide: pipeline %q has no output", p.Name)
	}
	if err := visit(p.Output); err != nil {
		return nil, err
	}
	return order, nil
}

// walkAccesses applies fn to every Access in the expression tree,
// recursing through inlined (non-compute-root) funcs exactly once per
// syntactic occurrence.
func walkAccesses(e Expr, fn func(Access) error) error {
	switch t := e.(type) {
	case Const:
		return nil
	case Access:
		return fn(t)
	case Bin:
		if err := walkAccesses(t.A, fn); err != nil {
			return err
		}
		return walkAccesses(t.B, fn)
	case Select:
		if err := walkAccesses(t.Cond, fn); err != nil {
			return err
		}
		if err := walkAccesses(t.Then, fn); err != nil {
			return err
		}
		return walkAccesses(t.Else, fn)
	case Reduce:
		for _, term := range t.Terms {
			if err := walkAccesses(term, fn); err != nil {
				return err
			}
		}
		return nil
	case Tab:
		return nil
	}
	return fmt.Errorf("halide: unknown expr node %T", e)
}

// OpCount tallies the arithmetic in one evaluation of e, recursing into
// inlined producers. Used by the GPU baseline model.
func OpCount(e Expr, isInlined func(*Func) bool) (flops, accesses int) {
	switch t := e.(type) {
	case Const:
	case Access:
		if t.Func != nil && isInlined(t.Func) {
			f, a := OpCount(t.Func.E, isInlined)
			return f, a
		}
		return 0, 1
	case Bin:
		fa, aa := OpCount(t.A, isInlined)
		fb, ab := OpCount(t.B, isInlined)
		return fa + fb + 1, aa + ab
	case Select:
		fc, ac := OpCount(t.Cond, isInlined)
		ft, at := OpCount(t.Then, isInlined)
		fe, ae := OpCount(t.Else, isInlined)
		// Blend lowering: cond*then + (1-cond)*else = 4 extra ops.
		return fc + ft + fe + 4, ac + at + ae
	case Reduce:
		// One add per accumulated term beyond the first.
		f, a := 0, 0
		for _, term := range t.Terms {
			ft, at := OpCount(term, isInlined)
			f, a = f+ft, a+at
		}
		return f + len(t.Terms) - 1, a
	case Tab:
		// Constant lookup: no flops, and the table lives in the
		// instruction stream rather than memory.
		return 0, 0
	}
	return 0, 0
}

// checkFinite guards golden-model outputs in tests.
func checkFinite(v float32) float32 {
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		panic("halide: non-finite value in reference evaluation")
	}
	return v
}
