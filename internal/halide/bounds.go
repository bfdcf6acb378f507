package halide

import "fmt"

// Interval is an inclusive integer range.
type Interval struct{ Lo, Hi int }

// Len returns the number of integers in the interval.
func (i Interval) Len() int { return i.Hi - i.Lo + 1 }

// Union expands the interval to cover o.
func (i Interval) Union(o Interval) Interval {
	if o.Lo < i.Lo {
		i.Lo = o.Lo
	}
	if o.Hi > i.Hi {
		i.Hi = o.Hi
	}
	return i
}

// Scale is a rational coordinate scale between a consumer's domain and
// a producer's domain (e.g. 1/2 after one downsample level).
type Scale struct{ Num, Den int }

// Mul composes a Coord's scale onto s and reduces the fraction.
func (s Scale) Mul(c Coord) Scale { return s.Times(Scale{c.Scale, c.Div}) }

// Times returns the product s·t as a reduced fraction.
func (s Scale) Times(t Scale) Scale {
	n, d := s.Num*t.Num, s.Den*t.Den
	g := gcd(n, d)
	return Scale{n / g, d / g}
}

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// BufUse records what one stage needs from one producer buffer: the
// coordinate scale between the stage's output domain and the producer's
// domain, and the producer-domain interval required when the stage
// computes output-local interval passed to StageRequirements (tile
// origins contribute separately through the scale; see DESIGN.md).
type BufUse struct {
	Buf    *Func // nil = the pipeline input
	SX, SY Scale
	X, Y   Interval
}

// bufKey distinguishes producers in the requirement map.
type bufKey struct{ f *Func }

// StageRequirements walks the stage's expression (recursing through
// inlined funcs) and returns the regions of every materialized producer
// required to compute the stage over the output-local region rx × ry.
// isMat reports whether a Func is materialized (compute_root).
func StageRequirements(stage *Func, rx, ry Interval, isMat func(*Func) bool) ([]BufUse, error) {
	uses := map[bufKey]*BufUse{}
	err := walkRequirements(stage.E, Scale{1, 1}, Scale{1, 1}, rx, ry, isMat, uses)
	if err != nil {
		return nil, err
	}
	var out []BufUse
	// Deterministic order: input first, then by name.
	var keys []bufKey
	for k := range uses {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if lessBuf(keys[j], keys[i]) {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		out = append(out, *uses[k])
	}
	return out, nil
}

func lessBuf(a, b bufKey) bool {
	switch {
	case a.f == nil:
		return b.f != nil
	case b.f == nil:
		return false
	default:
		return a.f.Name < b.f.Name
	}
}

// applyCoord transforms a local interval through one Coord. Exact under
// the power-of-two tile alignment the planner enforces.
func applyCoord(c Coord, iv Interval) Interval {
	lo := floorDiv(c.Scale*iv.Lo+c.Offset, c.Div)
	hi := floorDiv(c.Scale*iv.Hi+c.Offset, c.Div)
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{lo, hi}
}

func walkRequirements(e Expr, sx, sy Scale, rx, ry Interval, isMat func(*Func) bool, uses map[bufKey]*BufUse) error {
	switch t := e.(type) {
	case Const:
		return nil
	case Access:
		nsx, nsy := sx.Mul(t.CX), sy.Mul(t.CY)
		nrx, nry := applyCoord(t.CX, rx), applyCoord(t.CY, ry)
		if t.Func == nil || isMat(t.Func) {
			k := bufKey{t.Func}
			u, ok := uses[k]
			if !ok {
				uses[k] = &BufUse{Buf: t.Func, SX: nsx, SY: nsy, X: nrx, Y: nry}
				return nil
			}
			if u.SX != nsx || u.SY != nsy {
				name := "input"
				if t.Func != nil {
					name = t.Func.Name
				}
				return fmt.Errorf("halide: buffer %q accessed at mixed scales %v vs %v", name, u.SX, nsx)
			}
			u.X = u.X.Union(nrx)
			u.Y = u.Y.Union(nry)
			return nil
		}
		// Inlined producer: recurse into its definition over the
		// transformed domain.
		if t.Func.E == nil {
			return fmt.Errorf("halide: func %q has no definition", t.Func.Name)
		}
		return walkRequirements(t.Func.E, nsx, nsy, nrx, nry, isMat, uses)
	case Bin:
		if err := walkRequirements(t.A, sx, sy, rx, ry, isMat, uses); err != nil {
			return err
		}
		return walkRequirements(t.B, sx, sy, rx, ry, isMat, uses)
	case Select:
		if err := walkRequirements(t.Cond, sx, sy, rx, ry, isMat, uses); err != nil {
			return err
		}
		if err := walkRequirements(t.Then, sx, sy, rx, ry, isMat, uses); err != nil {
			return err
		}
		return walkRequirements(t.Else, sx, sy, rx, ry, isMat, uses)
	case Reduce:
		for _, term := range t.Terms {
			if err := walkRequirements(term, sx, sy, rx, ry, isMat, uses); err != nil {
				return err
			}
		}
		return nil
	case Tab:
		// Constant table: no buffer requirement.
		return nil
	}
	return fmt.Errorf("halide: unknown expr node %T", e)
}
