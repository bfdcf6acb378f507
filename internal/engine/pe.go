// Package engine implements the memory side of iPIM's process engines:
// the Process Engine (PE) — its near-bank memory and the movers between
// bank, scratchpad and a DataRF vector — and the Process Group (PG) —
// four PEs, their shared scratchpad (PGSM) and the in-DRAM memory
// controller (paper Sec. IV-A/IV-E).
//
// The engine layer is purely functional: it moves bytes. Every PE's
// DataRF and AddrRF live in one register slab owned by the vault
// (internal/vault), which also runs the PEs' SIMD unit and integer ALU,
// so one SIMB instruction is one operation over a register of every
// selected PE; the movers here take the vector they fill or drain.
// Each transfer has one mover, whatever its mask and in every execution
// mode: LoadVector and StoreVector between a bank and a vector,
// VectorFromPGSM and VectorToPGSM between the PGSM and a vector, and
// DMABankToPGSM and DMAPGSMToBank between a bank and the PGSM. All
// timing lives in the vault's control core model, which consults the
// PG's dram.Controller for bank access scheduling.
package engine

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"ipim/internal/dram"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Vector is one DataRF entry: 4 lanes of raw 32-bit data (FP32 or INT32
// depending on the instruction interpreting it).
type Vector [isa.VecLanes]uint32

// PE is one process engine's DRAM bank.
//
// Concurrency: a PE is owned by its vault — all bank *writes* happen
// only on the goroutine currently running that vault (or on the host
// thread outside a run). The bank storage is additionally readable from
// other vaults' goroutines through SnapshotRead (the req instruction's
// remote-read path), which is why the backing slice is published
// through an atomic pointer: lazy growth swaps in a larger array
// without invalidating a concurrent reader's view of everything written
// before the swap.
type PE struct {
	bank      atomic.Pointer[[]byte] // lazily grown up to bankBytes
	bankBytes int
}

// NewPE builds a PE with an empty bank of the configured capacity.
func NewPE(cfg *sim.Config) *PE { return &PE{bankBytes: cfg.BankBytes} }

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

// vecBytes is one full vector register in bank or PGSM bytes. The
// movers' full-mask branches copy all four lanes by hand; the assertion
// fails to compile if the lane count ever changes.
const vecBytes = 4 * isa.VecLanes

var _ [1]struct{} = [5 - isa.VecLanes]struct{}{}

// LoadVector reads vector lanes from the bank into v. Only lanes
// selected by vmask are written; lane l's word comes from
// addr + 4*l. Addresses need only 4-byte alignment: the timing layer
// charges a second column access when the 128-bit window crosses a
// column boundary.
func (pe *PE) LoadVector(addr uint32, v *Vector, vmask uint8) error {
	vmask &= isa.VecMaskAll
	if vmask == 0 {
		return nil
	}
	// Fast path: when the span from addr through the highest selected
	// lane fits the bank without 32-bit address wraparound, one bounds
	// check and growth covers every lane, and a full mask moves as one
	// 16-byte array. Lane addresses wrap mod 2^32 by the ISA's
	// indirect-addressing semantics (e.g. base-4 with lane 0 masked
	// off), so a span that overflows falls back to per-lane addressing.
	if end := uint64(addr) + 4*uint64(bits.Len8(vmask)); end <= uint64(pe.bankBytes) {
		bank, err := pe.ensure(int(end))
		if err != nil {
			return err
		}
		if vmask == isa.VecMaskAll {
			b := (*[vecBytes]byte)(bank[addr:end])
			v[0] = binary.LittleEndian.Uint32(b[0:4])
			v[1] = binary.LittleEndian.Uint32(b[4:8])
			v[2] = binary.LittleEndian.Uint32(b[8:12])
			v[3] = binary.LittleEndian.Uint32(b[12:16])
			return nil
		}
		for l := range isa.VecLanes {
			if vmask&(1<<l) != 0 {
				v[l] = binary.LittleEndian.Uint32(bank[addr+uint32(4*l):])
			}
		}
		return nil
	}
	for l := range isa.VecLanes {
		if vmask&(1<<l) == 0 {
			continue
		}
		b, err := pe.ReadBank(addr+uint32(4*l), 4)
		if err != nil {
			return err
		}
		v[l] = binary.LittleEndian.Uint32(b)
	}
	return nil
}

// StoreVector writes the vmask-selected lanes of v to the bank at addr
// (lane l to addr + 4*l).
func (pe *PE) StoreVector(addr uint32, v *Vector, vmask uint8) error {
	vmask &= isa.VecMaskAll
	if vmask == 0 {
		return nil
	}
	// Same fast/slow split as LoadVector: batched unless the lane span
	// wraps or exceeds the bank.
	if end := uint64(addr) + 4*uint64(bits.Len8(vmask)); end <= uint64(pe.bankBytes) {
		bank, err := pe.ensure(int(end))
		if err != nil {
			return err
		}
		if vmask == isa.VecMaskAll {
			b := (*[vecBytes]byte)(bank[addr:end])
			binary.LittleEndian.PutUint32(b[0:4], v[0])
			binary.LittleEndian.PutUint32(b[4:8], v[1])
			binary.LittleEndian.PutUint32(b[8:12], v[2])
			binary.LittleEndian.PutUint32(b[12:16], v[3])
			return nil
		}
		for l := range isa.VecLanes {
			if vmask&(1<<l) != 0 {
				binary.LittleEndian.PutUint32(bank[addr+uint32(4*l):], v[l])
			}
		}
		return nil
	}
	var b [4]byte
	for l := range isa.VecLanes {
		if vmask&(1<<l) == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(b[:], v[l])
		if err := pe.WriteBank(addr+uint32(4*l), b[:]); err != nil {
			return err
		}
	}
	return nil
}

// PG is one process group: PEs sharing a scratchpad and an in-DRAM
// memory controller.
type PG struct {
	ID   int              // PG index within its vault
	PEs  []*PE            // the PG's PEs, one bank each
	PGSM []byte           // the shared scratchpad (PG shared memory)
	Ctrl *dram.Controller // schedules every bank access of the PG's PEs
}

// NewPG builds a process group with its PEs and controller.
func NewPG(cfg *sim.Config, pgID int) *PG {
	pg := &PG{
		ID:   pgID,
		PGSM: make([]byte, cfg.PGSMBytes),
		Ctrl: dram.NewController(cfg.PEsPerPG, cfg.DRAMReqQueue, cfg.Timing, cfg.Geometry(), cfg.Page, cfg.Sched),
	}
	for pe := 0; pe < cfg.PEsPerPG; pe++ {
		pg.PEs = append(pg.PEs, NewPE(cfg))
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

// VectorToPGSM writes the vmask-selected lanes of v into the PGSM
// (lane l at addr + 4*l). PGSM is SRAM: any 4-byte-aligned address is
// legal.
func (pg *PG) VectorToPGSM(addr uint32, v *Vector, vmask uint8) error {
	vmask &= isa.VecMaskAll
	if vmask == 0 {
		return nil
	}
	// Batched fast path when the lane span neither wraps mod 2^32 nor
	// leaves the scratchpad; otherwise exact per-lane addressing.
	if end := uint64(addr) + 4*uint64(bits.Len8(vmask)); end <= uint64(len(pg.PGSM)) {
		if vmask == isa.VecMaskAll {
			b := (*[vecBytes]byte)(pg.PGSM[addr:end])
			binary.LittleEndian.PutUint32(b[0:4], v[0])
			binary.LittleEndian.PutUint32(b[4:8], v[1])
			binary.LittleEndian.PutUint32(b[8:12], v[2])
			binary.LittleEndian.PutUint32(b[12:16], v[3])
			return nil
		}
		for l := range isa.VecLanes {
			if vmask&(1<<l) != 0 {
				binary.LittleEndian.PutUint32(pg.PGSM[addr+uint32(4*l):], v[l])
			}
		}
		return nil
	}
	var b [4]byte
	for l := range isa.VecLanes {
		if vmask&(1<<l) == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(b[:], v[l])
		if err := pg.WritePGSM(addr+uint32(4*l), b[:]); err != nil {
			return err
		}
	}
	return nil
}

// VectorFromPGSM reads vmask-selected lanes from the PGSM into v.
func (pg *PG) VectorFromPGSM(addr uint32, v *Vector, vmask uint8) error {
	vmask &= isa.VecMaskAll
	if vmask == 0 {
		return nil
	}
	if end := uint64(addr) + 4*uint64(bits.Len8(vmask)); end <= uint64(len(pg.PGSM)) {
		if vmask == isa.VecMaskAll {
			b := (*[vecBytes]byte)(pg.PGSM[addr:end])
			v[0] = binary.LittleEndian.Uint32(b[0:4])
			v[1] = binary.LittleEndian.Uint32(b[4:8])
			v[2] = binary.LittleEndian.Uint32(b[8:12])
			v[3] = binary.LittleEndian.Uint32(b[12:16])
			return nil
		}
		for l := range isa.VecLanes {
			if vmask&(1<<l) != 0 {
				v[l] = binary.LittleEndian.Uint32(pg.PGSM[addr+uint32(4*l):])
			}
		}
		return nil
	}
	for l := range isa.VecLanes {
		if vmask&(1<<l) == 0 {
			continue
		}
		b, err := pg.ReadPGSM(addr+uint32(4*l), 4)
		if err != nil {
			return err
		}
		v[l] = binary.LittleEndian.Uint32(b)
	}
	return nil
}

// DMABankToPGSM copies the 128-bit column beat at bankAddr into the
// PGSM at pgsmAddr: ld_pgsm's data movement. Bounds behavior and error
// text match ReadBank followed by WritePGSM.
func (pg *PG) DMABankToPGSM(pe *PE, bankAddr, pgsmAddr uint32) error {
	bank, err := pe.ensure(int(bankAddr) + dram.AccessBytes)
	if err != nil {
		return err
	}
	if int(pgsmAddr)+dram.AccessBytes > len(pg.PGSM) {
		return fmt.Errorf("engine: PGSM write at %#x+%d beyond %d bytes", pgsmAddr, dram.AccessBytes, len(pg.PGSM))
	}
	*(*[dram.AccessBytes]byte)(pg.PGSM[pgsmAddr:]) = *(*[dram.AccessBytes]byte)(bank[bankAddr:])
	return nil
}

// DMAPGSMToBank copies the 128-bit beat at pgsmAddr into the bank at
// bankAddr: st_pgsm's data movement. Bounds behavior and error text
// match ReadPGSM followed by WriteBank.
func (pg *PG) DMAPGSMToBank(pe *PE, pgsmAddr, bankAddr uint32) error {
	if int(pgsmAddr)+dram.AccessBytes > len(pg.PGSM) {
		return fmt.Errorf("engine: PGSM access at %#x+%d beyond %d bytes", pgsmAddr, dram.AccessBytes, len(pg.PGSM))
	}
	bank, err := pe.ensure(int(bankAddr) + dram.AccessBytes)
	if err != nil {
		return err
	}
	*(*[dram.AccessBytes]byte)(bank[bankAddr:]) = *(*[dram.AccessBytes]byte)(pg.PGSM[pgsmAddr:])
	return nil
}
