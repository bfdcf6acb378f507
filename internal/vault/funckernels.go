package vault

import (
	"math"

	"ipim/internal/engine"
	"ipim/internal/isa"
)

// Specialized ALU kernels for the vault's executor (execFunc), which
// every execution mode runs. The generic per-lane dispatcher
// (engine.PE.Comp → isa.EvalLane) re-decides the op's type and
// semantics for every lane of every PE; the kernels hoist that
// dispatch: one kernel lookup per instruction, then a tight unrolled
// loop over the vault's masked PEs.
//
// Every kernel must be bit-exact with isa.EvalLane — same rounding
// (float32 expression shapes match isa.EvalF exactly; Go never fuses),
// same NaN behaviour in min/max/compares, same F2I clamping. NaN
// results are normalized to isa.CanonNaN via u32, exactly as EvalLane
// normalizes its float path — without that, the architectural bits of
// NaN+NaN would depend on which operand the compiler left in the x86
// destination register, which varies per inlining context. Because
// every mode shares these kernels, a differential between modes cannot
// see a kernel bug; TestCompKernelsBitExact, TestExecFuncCompVsPEComp
// and FuzzExecFuncVsEvalLane (execref_test.go) pin them against the
// per-PE reference interpreters instead.

// compKernel applies one comp op to all four lanes of d (in place, d as
// accumulator for mac ops). Kernels assume a full vector mask; partial
// masks take the generic path.
type compKernel func(d, a, b *engine.Vector)

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

func kFAdd(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = u32(f32(a[l]) + f32(b[l]))
	}
}

func kFSub(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = u32(f32(a[l]) - f32(b[l]))
	}
}

func kFMul(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = u32(f32(a[l]) * f32(b[l]))
	}
}

func kFMac(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = u32(f32(d[l]) + f32(a[l])*f32(b[l]))
	}
}

func kFDiv(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = u32(f32(a[l]) / f32(b[l]))
	}
}

func kFMin(d, a, b *engine.Vector) {
	for l := range d {
		av, bv := f32(a[l]), f32(b[l])
		if av < bv {
			d[l] = u32(av)
		} else {
			d[l] = u32(bv)
		}
	}
}

func kFMax(d, a, b *engine.Vector) {
	for l := range d {
		av, bv := f32(a[l]), f32(b[l])
		if av > bv {
			d[l] = u32(av)
		} else {
			d[l] = u32(bv)
		}
	}
}

func kFAbs(d, a, _ *engine.Vector) {
	for l := range d {
		d[l] = u32(float32(math.Abs(float64(f32(a[l])))))
	}
}

func kFCmpLT(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = b1f(f32(a[l]) < f32(b[l]))
	}
}

func kFCmpLE(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = b1f(f32(a[l]) <= f32(b[l]))
	}
}

func kFFloor(d, a, _ *engine.Vector) {
	for l := range d {
		d[l] = u32(float32(math.Floor(float64(f32(a[l])))))
	}
}

func kI2F(d, a, _ *engine.Vector) {
	for l := range d {
		d[l] = u32(float32(int32(a[l])))
	}
}

func kF2I(d, a, _ *engine.Vector) {
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

func kIAdd(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = uint32(int32(a[l]) + int32(b[l]))
	}
}

func kISub(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = uint32(int32(a[l]) - int32(b[l]))
	}
}

func kIMul(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = uint32(int32(a[l]) * int32(b[l]))
	}
}

func kIMac(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = uint32(int32(d[l]) + int32(a[l])*int32(b[l]))
	}
}

func kIMin(d, a, b *engine.Vector) {
	for l := range d {
		av, bv := int32(a[l]), int32(b[l])
		if av < bv {
			d[l] = uint32(av)
		} else {
			d[l] = uint32(bv)
		}
	}
}

func kIMax(d, a, b *engine.Vector) {
	for l := range d {
		av, bv := int32(a[l]), int32(b[l])
		if av > bv {
			d[l] = uint32(av)
		} else {
			d[l] = uint32(bv)
		}
	}
}

func kICmpLT(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = b1i(int32(a[l]) < int32(b[l]))
	}
}

func kICmpEQ(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = b1i(int32(a[l]) == int32(b[l]))
	}
}

func kShl(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = uint32(int32(a[l]) << (b[l] & 31))
	}
}

func kShr(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = a[l] >> (b[l] & 31)
	}
}

func kAnd(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = a[l] & b[l]
	}
}

func kOr(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = a[l] | b[l]
	}
}

func kXor(d, a, b *engine.Vector) {
	for l := range d {
		d[l] = a[l] ^ b[l]
	}
}

func kCropLSB(d, a, _ *engine.Vector) {
	for l := range d {
		d[l] = uint32(int32(a[l]) & 0xFFFF)
	}
}

func kCropMSB(d, a, _ *engine.Vector) {
	for l := range d {
		d[l] = uint32((int32(a[l]) >> 16) & 0xFFFF)
	}
}

func kMov(d, a, _ *engine.Vector) {
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

// compKernelFor returns the specialized kernel for op, or nil when the
// op has none (the caller falls back to the generic interpreter).
func compKernelFor(op isa.ALUOp) compKernel {
	if int(op) < len(compKernels) {
		return compKernels[op]
	}
	return nil
}

// The fused loops below unroll all four lanes by hand; this assertion
// fails to compile if the lane count ever changes.
var _ [1]struct{} = [5 - isa.VecLanes]struct{}{}

// execFuncComp executes one comp instruction across the masked PEs
// with the op dispatch hoisted out of the lane loop. The ops that
// dominate compiled image pipelines additionally get fused loops — op
// dispatched once per instruction, lanes unrolled, no per-PE kernel
// call — when every PE of the vault is selected. Partial vector masks
// and unknown ops fall back to the generic per-PE interpreter.
func (v *Vault) execFuncComp(in *isa.Instruction) {
	mask, pes := in.SimbMask, v.peFlat
	if in.VecMask != isa.VecMaskAll {
		for i, pe := range pes {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			pe.Comp(in)
		}
		return
	}
	dst, s1, s2 := in.Dst, in.Src1, in.Src2
	vs := in.Mode == isa.ModeVS
	if selectsAll(mask, len(pes)) {
		switch in.ALU {
		case isa.FAdd:
			if vs {
				for i := range pes {
					pe := pes[i]
					d, a := &pe.DataRF[dst], &pe.DataRF[s1]
					s := f32(pe.DataRF[s2][0])
					d[0], d[1], d[2], d[3] = u32(f32(a[0])+s), u32(f32(a[1])+s), u32(f32(a[2])+s), u32(f32(a[3])+s)
				}
			} else {
				for i := range pes {
					pe := pes[i]
					d, a, b := &pe.DataRF[dst], &pe.DataRF[s1], &pe.DataRF[s2]
					d[0], d[1], d[2], d[3] = u32(f32(a[0])+f32(b[0])), u32(f32(a[1])+f32(b[1])), u32(f32(a[2])+f32(b[2])), u32(f32(a[3])+f32(b[3]))
				}
			}
			return
		case isa.FSub:
			if vs {
				for i := range pes {
					pe := pes[i]
					d, a := &pe.DataRF[dst], &pe.DataRF[s1]
					s := f32(pe.DataRF[s2][0])
					d[0], d[1], d[2], d[3] = u32(f32(a[0])-s), u32(f32(a[1])-s), u32(f32(a[2])-s), u32(f32(a[3])-s)
				}
			} else {
				for i := range pes {
					pe := pes[i]
					d, a, b := &pe.DataRF[dst], &pe.DataRF[s1], &pe.DataRF[s2]
					d[0], d[1], d[2], d[3] = u32(f32(a[0])-f32(b[0])), u32(f32(a[1])-f32(b[1])), u32(f32(a[2])-f32(b[2])), u32(f32(a[3])-f32(b[3]))
				}
			}
			return
		case isa.FMul:
			if vs {
				for i := range pes {
					pe := pes[i]
					d, a := &pe.DataRF[dst], &pe.DataRF[s1]
					s := f32(pe.DataRF[s2][0])
					d[0], d[1], d[2], d[3] = u32(f32(a[0])*s), u32(f32(a[1])*s), u32(f32(a[2])*s), u32(f32(a[3])*s)
				}
			} else {
				for i := range pes {
					pe := pes[i]
					d, a, b := &pe.DataRF[dst], &pe.DataRF[s1], &pe.DataRF[s2]
					d[0], d[1], d[2], d[3] = u32(f32(a[0])*f32(b[0])), u32(f32(a[1])*f32(b[1])), u32(f32(a[2])*f32(b[2])), u32(f32(a[3])*f32(b[3]))
				}
			}
			return
		case isa.FMac:
			if vs {
				for i := range pes {
					pe := pes[i]
					d, a := &pe.DataRF[dst], &pe.DataRF[s1]
					s := f32(pe.DataRF[s2][0])
					d[0], d[1], d[2], d[3] = u32(f32(d[0])+f32(a[0])*s), u32(f32(d[1])+f32(a[1])*s), u32(f32(d[2])+f32(a[2])*s), u32(f32(d[3])+f32(a[3])*s)
				}
			} else {
				for i := range pes {
					pe := pes[i]
					d, a, b := &pe.DataRF[dst], &pe.DataRF[s1], &pe.DataRF[s2]
					d[0], d[1], d[2], d[3] = u32(f32(d[0])+f32(a[0])*f32(b[0])), u32(f32(d[1])+f32(a[1])*f32(b[1])), u32(f32(d[2])+f32(a[2])*f32(b[2])), u32(f32(d[3])+f32(a[3])*f32(b[3]))
				}
			}
			return
		case isa.FMin:
			kernelAll(pes, dst, s1, s2, vs, kFMin)
			return
		case isa.FMax:
			kernelAll(pes, dst, s1, s2, vs, kFMax)
			return
		case isa.IAdd:
			if vs {
				for i := range pes {
					pe := pes[i]
					d, a := &pe.DataRF[dst], &pe.DataRF[s1]
					s := pe.DataRF[s2][0]
					d[0], d[1], d[2], d[3] = uint32(int32(a[0])+int32(s)), uint32(int32(a[1])+int32(s)), uint32(int32(a[2])+int32(s)), uint32(int32(a[3])+int32(s))
				}
			} else {
				for i := range pes {
					pe := pes[i]
					d, a, b := &pe.DataRF[dst], &pe.DataRF[s1], &pe.DataRF[s2]
					d[0], d[1], d[2], d[3] = uint32(int32(a[0])+int32(b[0])), uint32(int32(a[1])+int32(b[1])), uint32(int32(a[2])+int32(b[2])), uint32(int32(a[3])+int32(b[3]))
				}
			}
			return
		case isa.Mov:
			for i := range pes {
				pe := pes[i]
				d, a := &pe.DataRF[dst], &pe.DataRF[s1]
				d[0], d[1], d[2], d[3] = a[0], a[1], a[2], a[3]
			}
			return
		}
	}
	k := compKernelFor(in.ALU)
	if k == nil {
		for i, pe := range pes {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			pe.Comp(in)
		}
		return
	}
	if vs {
		// Scalar-vector: broadcast src2 lane 0. The broadcast vector is
		// materialized before the kernel writes anything, preserving the
		// read-before-write semantics of the generic path when dst
		// aliases src2.
		var bb engine.Vector
		for i, pe := range pes {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			s := pe.DataRF[s2][0]
			bb[0], bb[1], bb[2], bb[3] = s, s, s, s
			k(&pe.DataRF[dst], &pe.DataRF[s1], &bb)
		}
		return
	}
	for i, pe := range pes {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		k(&pe.DataRF[dst], &pe.DataRF[s1], &pe.DataRF[s2])
	}
}

// kernelAll applies a lane kernel to every PE in pes (all selected,
// full vector mask), handling the VS broadcast with copy-first
// semantics.
func kernelAll(pes []*engine.PE, dst, s1, s2 int, vs bool, k compKernel) {
	if vs {
		var bb engine.Vector
		for i := range pes {
			pe := pes[i]
			s := pe.DataRF[s2][0]
			bb[0], bb[1], bb[2], bb[3] = s, s, s, s
			k(&pe.DataRF[dst], &pe.DataRF[s1], &bb)
		}
		return
	}
	for i := range pes {
		pe := pes[i]
		k(&pe.DataRF[dst], &pe.DataRF[s1], &pe.DataRF[s2])
	}
}

// execFuncCalcARF executes one calc_arf across the masked PEs. The
// compiler's address streams are overwhelmingly iadd-with-immediate,
// so that shape gets a dedicated loop; everything else goes through
// the generic scalar ALU.
func (v *Vault) execFuncCalcARF(in *isa.Instruction) {
	mask, pes := in.SimbMask, v.peFlat
	if in.HasImm && in.ALU == isa.IAdd {
		imm := int32(in.Imm)
		dst, src := in.Dst, in.Src1
		if selectsAll(mask, len(pes)) {
			for _, pe := range pes {
				pe.AddrRF[dst] = pe.AddrRF[src] + imm
			}
			return
		}
		for i, pe := range pes {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			pe.AddrRF[dst] = pe.AddrRF[src] + imm
		}
		return
	}
	for i, pe := range pes {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		pe.CalcARF(in)
	}
}

// selectsAll reports whether mask selects every one of n PEs. 1<<64
// shifts to 0 in Go, so the wrap still yields the all-ones mask for a
// 64-PE vault.
func selectsAll(mask uint64, n int) bool {
	all := uint64(1)<<uint(n) - 1
	return mask&all == all
}
