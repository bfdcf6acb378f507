// Package engine implements the execution side of iPIM's decoupled
// control-execution architecture: the Process Engine (PE) — SIMD unit,
// integer ALU, data/address register files and the near-bank memory —
// and the Process Group (PG) — four PEs, their shared scratchpad (PGSM)
// and the in-DRAM memory controller (paper Sec. IV-A/IV-E).
//
// The engine layer is purely functional: it moves and transforms bytes.
// All timing lives in the vault's control core model, which consults the
// PG's dram.Controller for bank access scheduling.
package engine

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"ipim/internal/dram"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Vector is one DataRF entry: 4 lanes of raw 32-bit data (FP32 or INT32
// depending on the instruction interpreting it).
type Vector [isa.VecLanes]uint32

// PE is one process engine: compute logic and buffers attached to one
// DRAM bank.
//
// Concurrency: a PE is owned by its vault — register files, scratchpads
// and all bank *writes* happen only on the goroutine currently running
// that vault (or on the host thread outside a run). The bank storage
// itself is additionally readable from other vaults' goroutines through
// SnapshotRead (the req instruction's remote-read path), which is why
// the backing slice is published through an atomic pointer: lazy growth
// swaps in a larger array without invalidating a concurrent reader's
// view of everything written before the swap.
type PE struct {
	// Index identifies the PE within its vault: pgID*PEsPerPG + peID.
	Index int

	DataRF []Vector
	AddrRF []int32

	bank      atomic.Pointer[[]byte] // lazily grown up to bankBytes
	bankBytes int
}

// NewPE builds a PE with the configured register files. A0-A3 are
// initialized with the PE's identifiers (paper Sec. IV-E).
func NewPE(cfg *sim.Config, cubeID, vaultID, pgID, peID int) *PE {
	pe := &PE{
		Index:     pgID*cfg.PEsPerPG + peID,
		DataRF:    make([]Vector, cfg.DataRFEntries),
		AddrRF:    make([]int32, cfg.AddrRFEntries),
		bankBytes: cfg.BankBytes,
	}
	pe.ResetRegs(cubeID, vaultID, pgID, peID)
	return pe
}

// ResetRegs zeroes both register files and re-seeds A0-A3 with the
// PE's identifiers: the register state NewPE builds.
func (pe *PE) ResetRegs(cubeID, vaultID, pgID, peID int) {
	clear(pe.DataRF)
	clear(pe.AddrRF)
	pe.AddrRF[isa.ARFPeID] = int32(peID)
	pe.AddrRF[isa.ARFPgID] = int32(pgID)
	pe.AddrRF[isa.ARFVaultID] = int32(vaultID)
	pe.AddrRF[isa.ARFChipID] = int32(cubeID)
}

// bankSlice returns the current backing array (nil before first use).
func (pe *PE) bankSlice() []byte {
	if p := pe.bank.Load(); p != nil {
		return *p
	}
	return nil
}

// ensure grows the lazily allocated bank storage to cover [0, end) and
// returns the (possibly freshly published) backing slice. Owner-only:
// growth is a single-writer publish; concurrent SnapshotRead callers
// keep a consistent older view.
func (pe *PE) ensure(end int) ([]byte, error) {
	if end > pe.bankBytes {
		return nil, fmt.Errorf("engine: bank access at %#x beyond %d-byte bank", end, pe.bankBytes)
	}
	bank := pe.bankSlice()
	if end > len(bank) {
		// Grow in 64 KB steps to amortize.
		sz := (end + 0xFFFF) &^ 0xFFFF
		if sz > pe.bankBytes {
			sz = pe.bankBytes
		}
		nb := make([]byte, sz)
		copy(nb, bank)
		pe.bank.Store(&nb)
		bank = nb
	}
	return bank, nil
}

// ReadBank copies n bytes at addr out of the bank. Owner-only (it may
// grow the bank); remote vaults use SnapshotRead.
func (pe *PE) ReadBank(addr uint32, n int) ([]byte, error) {
	bank, err := pe.ensure(int(addr) + n)
	if err != nil {
		return nil, err
	}
	return bank[addr : int(addr)+n], nil
}

// WriteBank copies b into the bank at addr. Owner-only.
func (pe *PE) WriteBank(addr uint32, b []byte) error {
	bank, err := pe.ensure(int(addr) + len(b))
	if err != nil {
		return err
	}
	copy(bank[addr:], b)
	return nil
}

// SnapshotRead returns a copy of n bytes at addr as of the most
// recently published bank array, zero-filling any tail the bank has not
// materialized yet (untouched DRAM reads as zero, exactly like the
// owner's ReadBank of never-written bytes). It never grows the bank, so
// it is safe to call from another vault's goroutine while the owner
// executes — provided the program itself does not write the addressed
// bytes in the same barrier phase (the SIMB memory model; see
// DESIGN.md).
func (pe *PE) SnapshotRead(addr uint32, n int) ([]byte, error) {
	if int(addr)+n > pe.bankBytes {
		return nil, fmt.Errorf("engine: bank access at %#x beyond %d-byte bank", int(addr)+n, pe.bankBytes)
	}
	out := make([]byte, n)
	bank := pe.bankSlice()
	if int(addr) < len(bank) {
		copy(out, bank[addr:])
	}
	return out, nil
}

// LoadVector reads vector lanes from the bank into DataRF[reg]. Only
// lanes selected by vmask are written; lane l's word comes from
// addr + 4*l. Addresses need only 4-byte alignment: the timing layer
// charges a second column access when the 128-bit window crosses a
// column boundary.
func (pe *PE) LoadVector(addr uint32, reg int, vmask uint8) error {
	hi := highSetLane(vmask)
	if hi < 0 {
		return nil
	}
	// Fast path: when the whole span [addr, addr+4*hi+4) fits the bank
	// without 32-bit address wraparound, one bounds check + growth
	// covers every lane. Lane addresses wrap mod 2^32 by the ISA's
	// indirect-addressing semantics (e.g. base-4 with lane 0 masked
	// off), so a span that overflows falls back to per-lane addressing.
	if end := uint64(addr) + uint64(4*hi) + 4; end <= uint64(pe.bankBytes) {
		bank, err := pe.ensure(int(end))
		if err != nil {
			return err
		}
		for l := 0; l <= hi; l++ {
			if vmask&(1<<uint(l)) == 0 {
				continue
			}
			pe.DataRF[reg][l] = binary.LittleEndian.Uint32(bank[addr+uint32(4*l):])
		}
		return nil
	}
	for l := 0; l <= hi; l++ {
		if vmask&(1<<uint(l)) == 0 {
			continue
		}
		b, err := pe.ReadBank(addr+uint32(4*l), 4)
		if err != nil {
			return err
		}
		pe.DataRF[reg][l] = binary.LittleEndian.Uint32(b)
	}
	return nil
}

// highSetLane returns the highest lane index selected by vmask, or -1
// for an empty mask.
func highSetLane(vmask uint8) int {
	for l := isa.VecLanes - 1; l >= 0; l-- {
		if vmask&(1<<uint(l)) != 0 {
			return l
		}
	}
	return -1
}

// StoreVector writes the vmask-selected lanes of DataRF[reg] to the
// bank at addr (lane l to addr + 4*l).
func (pe *PE) StoreVector(addr uint32, reg int, vmask uint8) error {
	hi := highSetLane(vmask)
	if hi < 0 {
		return nil
	}
	// Same fast/slow split as LoadVector: batched unless the lane span
	// wraps or exceeds the bank.
	if end := uint64(addr) + uint64(4*hi) + 4; end <= uint64(pe.bankBytes) {
		bank, err := pe.ensure(int(end))
		if err != nil {
			return err
		}
		for l := 0; l <= hi; l++ {
			if vmask&(1<<uint(l)) == 0 {
				continue
			}
			binary.LittleEndian.PutUint32(bank[addr+uint32(4*l):], pe.DataRF[reg][l])
		}
		return nil
	}
	var b [4]byte
	for l := 0; l <= hi; l++ {
		if vmask&(1<<uint(l)) == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(b[:], pe.DataRF[reg][l])
		if err := pe.WriteBank(addr+uint32(4*l), b[:]); err != nil {
			return err
		}
	}
	return nil
}

// Comp executes one comp instruction on this PE.
func (pe *PE) Comp(in *isa.Instruction) {
	src1 := pe.DataRF[in.Src1]
	src2 := pe.DataRF[in.Src2]
	dst := pe.DataRF[in.Dst]
	for l := 0; l < isa.VecLanes; l++ {
		if in.VecMask&(1<<uint(l)) == 0 {
			continue
		}
		b := src2[l]
		if in.Mode == isa.ModeVS {
			b = src2[0] // scalar-vector: lane 0 broadcast
		}
		dst[l] = isa.EvalLane(in.ALU, src1[l], b, dst[l])
	}
	pe.DataRF[in.Dst] = dst
}

// CalcARF executes one calc_arf instruction on this PE's integer ALU.
func (pe *PE) CalcARF(in *isa.Instruction) {
	a := pe.AddrRF[in.Src1]
	var b int32
	if in.HasImm {
		b = int32(in.Imm)
	} else {
		b = pe.AddrRF[in.Src2]
	}
	pe.AddrRF[in.Dst] = isa.EvalI(in.ALU, a, b, pe.AddrRF[in.Dst])
}

// MovToDRF implements mov_drf: AddrRF[src] broadcast into one lane of
// DataRF[dst] (the scalar-to-vector multiplexer of Sec. IV-E).
func (pe *PE) MovToDRF(dst, src, lane int) {
	pe.DataRF[dst][lane] = uint32(pe.AddrRF[src])
}

// MovToARF implements mov_arf: one lane of DataRF[src] into AddrRF[dst].
func (pe *PE) MovToARF(dst, src, lane int) {
	pe.AddrRF[dst] = int32(pe.DataRF[src][lane])
}

// Reset zeroes DataRF[reg].
func (pe *PE) Reset(reg int) { pe.DataRF[reg] = Vector{} }

// FlipDataRFBit flips one bit of DataRF[reg] lane. The fault-injection
// layer uses it to corrupt the destination of an uncorrectable bank
// read; the bank backing store itself is never mutated (it may be
// concurrently snapshot-read by other vaults).
func (pe *PE) FlipDataRFBit(reg, lane int, bit uint) {
	pe.DataRF[reg][lane] ^= 1 << bit
}

// EffectiveAddr resolves a (possibly indirect) address field against
// this PE's AddrRF.
func (pe *PE) EffectiveAddr(addr uint32, indirect bool) uint32 {
	if indirect {
		return uint32(pe.AddrRF[addr])
	}
	return addr
}

// PG is one process group: PEs sharing a scratchpad and an in-DRAM
// memory controller.
type PG struct {
	ID   int
	PEs  []*PE
	PGSM []byte
	Ctrl *dram.Controller
}

// NewPG builds a process group with its PEs and controller.
func NewPG(cfg *sim.Config, cubeID, vaultID, pgID int) *PG {
	pg := &PG{
		ID:   pgID,
		PGSM: make([]byte, cfg.PGSMBytes),
		Ctrl: dram.NewController(cfg.PEsPerPG, cfg.DRAMReqQueue, cfg.Timing, cfg.Geometry(), cfg.Page, cfg.Sched),
	}
	for pe := 0; pe < cfg.PEsPerPG; pe++ {
		pg.PEs = append(pg.PEs, NewPE(cfg, cubeID, vaultID, pgID, pe))
	}
	return pg
}

// ReadPGSM copies n bytes at addr out of the scratchpad.
func (pg *PG) ReadPGSM(addr uint32, n int) ([]byte, error) {
	if int(addr)+n > len(pg.PGSM) {
		return nil, fmt.Errorf("engine: PGSM access at %#x+%d beyond %d bytes", addr, n, len(pg.PGSM))
	}
	return pg.PGSM[addr : int(addr)+n], nil
}

// WritePGSM copies b into the scratchpad at addr.
func (pg *PG) WritePGSM(addr uint32, b []byte) error {
	if int(addr)+len(b) > len(pg.PGSM) {
		return fmt.Errorf("engine: PGSM write at %#x+%d beyond %d bytes", addr, len(b), len(pg.PGSM))
	}
	copy(pg.PGSM[addr:], b)
	return nil
}

// FlipPGSMBit flips one bit of the scratchpad byte at addr (fault
// injection on the destination of an uncorrectable bank-to-PGSM read).
func (pg *PG) FlipPGSMBit(addr uint32, bit uint) error {
	if int(addr) >= len(pg.PGSM) {
		return fmt.Errorf("engine: PGSM bit flip at %#x beyond %d bytes", addr, len(pg.PGSM))
	}
	pg.PGSM[addr] ^= 1 << bit
	return nil
}

// VectorToPGSM writes the vmask-selected lanes of DataRF[reg] into the
// PGSM (lane l at addr + 4*l). PGSM is SRAM: any 4-byte-aligned address
// is legal.
func (pg *PG) VectorToPGSM(pe *PE, addr uint32, reg int, vmask uint8) error {
	hi := highSetLane(vmask)
	if hi < 0 {
		return nil
	}
	// Batched fast path when the lane span neither wraps mod 2^32 nor
	// leaves the scratchpad; otherwise exact per-lane addressing.
	if end := uint64(addr) + uint64(4*hi) + 4; end <= uint64(len(pg.PGSM)) {
		for l := 0; l <= hi; l++ {
			if vmask&(1<<uint(l)) == 0 {
				continue
			}
			binary.LittleEndian.PutUint32(pg.PGSM[addr+uint32(4*l):], pe.DataRF[reg][l])
		}
		return nil
	}
	var b [4]byte
	for l := 0; l <= hi; l++ {
		if vmask&(1<<uint(l)) == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(b[:], pe.DataRF[reg][l])
		if err := pg.WritePGSM(addr+uint32(4*l), b[:]); err != nil {
			return err
		}
	}
	return nil
}

// VectorFromPGSM reads vmask-selected lanes from the PGSM into
// DataRF[reg].
func (pg *PG) VectorFromPGSM(pe *PE, addr uint32, reg int, vmask uint8) error {
	hi := highSetLane(vmask)
	if hi < 0 {
		return nil
	}
	if end := uint64(addr) + uint64(4*hi) + 4; end <= uint64(len(pg.PGSM)) {
		for l := 0; l <= hi; l++ {
			if vmask&(1<<uint(l)) == 0 {
				continue
			}
			pe.DataRF[reg][l] = binary.LittleEndian.Uint32(pg.PGSM[addr+uint32(4*l):])
		}
		return nil
	}
	for l := 0; l <= hi; l++ {
		if vmask&(1<<uint(l)) == 0 {
			continue
		}
		b, err := pg.ReadPGSM(addr+uint32(4*l), 4)
		if err != nil {
			return err
		}
		pe.DataRF[reg][l] = binary.LittleEndian.Uint32(b)
	}
	return nil
}
