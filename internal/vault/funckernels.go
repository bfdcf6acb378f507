package vault

import (
	"math"

	"ipim/internal/isa"
)

// The ALU kernels of the vault's executor (execFunc), which every
// execution mode runs. The vault holds every PE's registers in one
// register-major slab (vault.go), so a register across the vault's PEs
// is one contiguous run of lanes: a comp is one kernel call over the
// DataRF lanes of its registers, and a calc_arf one call over the
// AddrRF words, which the slab keeps as raw 32-bit words too. The op
// is dispatched once per instruction.
//
// Every kernel must be bit-exact with isa.EvalLane (and, for the ops
// calc_arf takes, with isa.EvalI) — same rounding (float32 expression
// shapes match isa.EvalF exactly; Go never fuses), same NaN behaviour
// in min/max/compares, same F2I clamping. NaN results are normalized to
// isa.CanonNaN via u32, exactly as EvalLane normalizes its float path —
// without that, the architectural bits of NaN+NaN would depend on which
// operand the compiler left in the x86 destination register, which
// varies per inlining context. Every kernel is total: no input traps,
// so computing the lanes of unselected PEs is harmless. Because every
// mode shares these kernels, a differential between modes cannot see a
// kernel bug; TestCompKernelsBitExact, TestExecFuncCompVsPEComp and
// FuzzExecFuncVsEvalLane (execref_test.go) pin them against
// isa.EvalLane and isa.EvalI instead.

// compKernel applies one ALU op lane by lane: d[i] = op(a[i], b[i]),
// with d[i] also the accumulator of the mac ops. a and b are at least
// as long as d; each kernel first reslices them to len(d), which lets
// the compiler drop the per-lane bounds checks. Lane i reads only index
// i of each slice, so d may alias a or b.
type compKernel func(d, a, b []uint32)

// f32 and u32 are the raw-bits/FP32 reinterpretations every float
// kernel uses (inlined: no call cost). u32 carries the CanonNaN
// normalization, so every float kernel inherits EvalLane's NaN
// semantics for free.
func f32(x uint32) float32 { return math.Float32frombits(x) }

func u32(x float32) uint32 {
	if x != x {
		return isa.CanonNaN
	}
	return math.Float32bits(x)
}

// b1 converts a comparison result to the ALU's 1/0 encoding.
func b1f(ok bool) uint32 {
	if ok {
		return u32(1)
	}
	return u32(0)
}

func b1i(ok bool) uint32 {
	if ok {
		return 1
	}
	return 0
}

func kFAdd(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = u32(f32(a[l]) + f32(b[l]))
	}
}

func kFSub(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = u32(f32(a[l]) - f32(b[l]))
	}
}

func kFMul(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = u32(f32(a[l]) * f32(b[l]))
	}
}

func kFMac(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = u32(f32(d[l]) + f32(a[l])*f32(b[l]))
	}
}

func kFDiv(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = u32(f32(a[l]) / f32(b[l]))
	}
}

func kFMin(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		av, bv := f32(a[l]), f32(b[l])
		if av < bv {
			d[l] = u32(av)
		} else {
			d[l] = u32(bv)
		}
	}
}

func kFMax(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		av, bv := f32(a[l]), f32(b[l])
		if av > bv {
			d[l] = u32(av)
		} else {
			d[l] = u32(bv)
		}
	}
}

func kFAbs(d, a, _ []uint32) {
	a = a[:len(d)]
	for l := range d {
		d[l] = u32(float32(math.Abs(float64(f32(a[l])))))
	}
}

func kFCmpLT(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = b1f(f32(a[l]) < f32(b[l]))
	}
}

func kFCmpLE(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = b1f(f32(a[l]) <= f32(b[l]))
	}
}

func kFFloor(d, a, _ []uint32) {
	a = a[:len(d)]
	for l := range d {
		d[l] = u32(float32(math.Floor(float64(f32(a[l])))))
	}
}

func kI2F(d, a, _ []uint32) {
	a = a[:len(d)]
	for l := range d {
		d[l] = u32(float32(int32(a[l])))
	}
}

func kF2I(d, a, _ []uint32) {
	a = a[:len(d)]
	for l := range d {
		f := f32(a[l])
		switch {
		case math.IsNaN(float64(f)):
			d[l] = 0
		case f >= math.MaxInt32:
			d[l] = uint32(int32(math.MaxInt32))
		case f <= math.MinInt32:
			minI32 := int32(math.MinInt32)
			d[l] = uint32(minI32)
		default:
			d[l] = uint32(int32(f))
		}
	}
}

func kIAdd(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = uint32(int32(a[l]) + int32(b[l]))
	}
}

func kISub(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = uint32(int32(a[l]) - int32(b[l]))
	}
}

func kIMul(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = uint32(int32(a[l]) * int32(b[l]))
	}
}

func kIMac(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = uint32(int32(d[l]) + int32(a[l])*int32(b[l]))
	}
}

func kIMin(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		av, bv := int32(a[l]), int32(b[l])
		if av < bv {
			d[l] = uint32(av)
		} else {
			d[l] = uint32(bv)
		}
	}
}

func kIMax(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		av, bv := int32(a[l]), int32(b[l])
		if av > bv {
			d[l] = uint32(av)
		} else {
			d[l] = uint32(bv)
		}
	}
}

func kICmpLT(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = b1i(int32(a[l]) < int32(b[l]))
	}
}

func kICmpEQ(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = b1i(int32(a[l]) == int32(b[l]))
	}
}

func kShl(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = uint32(int32(a[l]) << (b[l] & 31))
	}
}

func kShr(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] >> (b[l] & 31)
	}
}

func kAnd(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] & b[l]
	}
}

func kOr(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] | b[l]
	}
}

func kXor(d, a, b []uint32) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] ^ b[l]
	}
}

func kCropLSB(d, a, _ []uint32) {
	a = a[:len(d)]
	for l := range d {
		d[l] = uint32(int32(a[l]) & 0xFFFF)
	}
}

func kCropMSB(d, a, _ []uint32) {
	a = a[:len(d)]
	for l := range d {
		d[l] = uint32((int32(a[l]) >> 16) & 0xFFFF)
	}
}

func kMov(d, a, _ []uint32) {
	a = a[:len(d)]
	for l := range d {
		d[l] = a[l]
	}
}

// compKernels maps every ValidForComp ALU op to its specialized kernel.
// Package-level funcs, so the lookup never allocates.
var compKernels = [...]compKernel{
	isa.FAdd:    kFAdd,
	isa.FSub:    kFSub,
	isa.FMul:    kFMul,
	isa.FMac:    kFMac,
	isa.FDiv:    kFDiv,
	isa.FMin:    kFMin,
	isa.FMax:    kFMax,
	isa.FAbs:    kFAbs,
	isa.FCmpLT:  kFCmpLT,
	isa.FCmpLE:  kFCmpLE,
	isa.FFloor:  kFFloor,
	isa.I2F:     kI2F,
	isa.F2I:     kF2I,
	isa.IAdd:    kIAdd,
	isa.ISub:    kISub,
	isa.IMul:    kIMul,
	isa.IMac:    kIMac,
	isa.IMin:    kIMin,
	isa.IMax:    kIMax,
	isa.ICmpLT:  kICmpLT,
	isa.ICmpEQ:  kICmpEQ,
	isa.Shl:     kShl,
	isa.Shr:     kShr,
	isa.And:     kAnd,
	isa.Or:      kOr,
	isa.Xor:     kXor,
	isa.CropLSB: kCropLSB,
	isa.CropMSB: kCropMSB,
	isa.Mov:     kMov,
}

// execFuncComp executes one comp instruction: one kernel call over the
// lanes of its registers on every PE. A VS operand is first broadcast
// from each PE's lane 0 into scratch lanes, before anything is written,
// so a destination aliasing src2 reads its old value.
func (v *Vault) execFuncComp(in *isa.Instruction) {
	d, a, b := v.dreg(in.Dst), v.dreg(in.Src1), v.dreg(in.Src2)
	if in.Mode == isa.ModeVS {
		s := v.scratch[:len(d)]
		for i := range s {
			s[i] = b[i-i%isa.VecLanes]
		}
		b = s
	}
	v.applyKernel(in, d, a, b, isa.VecLanes, in.VecMask)
}

// execFuncCalcARF executes one calc_arf: one kernel call over the
// AddrRF words of its registers on every PE, an immediate broadcast
// into scratch first.
func (v *Vault) execFuncCalcARF(in *isa.Instruction) {
	d, a := v.areg(in.Dst), v.areg(in.Src1)
	var b []uint32
	if in.HasImm {
		b = v.scratch[:len(d)]
		imm := uint32(int32(in.Imm))
		for i := range b {
			b[i] = imm
		}
	} else {
		b = v.areg(in.Src2)
	}
	v.applyKernel(in, d, a, b, 1, 1)
}

// applyKernel runs in's ALU kernel over registers of width lanes per
// PE. When in selects every PE and every lane of vmask's width, the
// kernel writes d in place; otherwise it writes a copy of d in scratch
// and only the lanes of selected PEs that vmask selects are copied
// back.
func (v *Vault) applyKernel(in *isa.Instruction, d, a, b []uint32, width int, vmask uint8) {
	k := compKernels[in.ALU]
	lanes := vmask & (1<<uint(width) - 1)
	if lanes == 1<<uint(width)-1 && selectsAll(in.SimbMask, len(v.peList)) {
		k(d, a, b)
		return
	}
	out := v.scratch[len(d) : 2*len(d)]
	copy(out, d)
	k(out, a, b)
	for p := range v.peList {
		if in.SimbMask&(1<<uint(p)) == 0 {
			continue
		}
		for l := 0; l < width; l++ {
			if lanes&(1<<uint(l)) != 0 {
				d[p*width+l] = out[p*width+l]
			}
		}
	}
}

// selectsAll reports whether mask selects every one of n PEs. 1<<64
// shifts to 0 in Go, so the wrap still yields the all-ones mask for a
// 64-PE vault.
func selectsAll(mask uint64, n int) bool {
	all := uint64(1)<<uint(n) - 1
	return mask&all == all
}
