package engine

import (
	"encoding/binary"
	"fmt"

	"ipim/internal/isa"
)

// Full-mask vector movers and fixed-beat DMA copies for the vault's
// executor, which every execution mode runs. Each is the corresponding
// masked or generic accessor specialized to its hot shape: the whole
// span is bounds-checked once, converted to an array pointer, and moved
// with constant-index accesses — no per-lane mask tests, no memmove
// calls. When the span would wrap mod 2^32 or leave the storage, each
// delegates to (or reproduces the error of) its generic counterpart, so
// error text and exact-wraparound addressing match the generic path.
// funcfast_test.go pins each against that counterpart.

// vecBytes is one full vector register in bank/PGSM bytes. The
// constant-index copies below unroll all four lanes by hand; the
// assertion fails to compile if the lane count ever changes.
const vecBytes = 4 * isa.VecLanes

var _ [1]struct{} = [5 - isa.VecLanes]struct{}{}

// LoadVectorFull is LoadVector with every lane selected.
func (pe *PE) LoadVectorFull(addr uint32, v *Vector) error {
	end := uint64(addr) + vecBytes
	if end > uint64(pe.bankBytes) {
		return pe.LoadVector(addr, v, isa.VecMaskAll)
	}
	bank, err := pe.ensure(int(end))
	if err != nil {
		return err
	}
	b := (*[vecBytes]byte)(bank[addr:end])
	v[0] = binary.LittleEndian.Uint32(b[0:4])
	v[1] = binary.LittleEndian.Uint32(b[4:8])
	v[2] = binary.LittleEndian.Uint32(b[8:12])
	v[3] = binary.LittleEndian.Uint32(b[12:16])
	return nil
}

// StoreVectorFull is StoreVector with every lane selected.
func (pe *PE) StoreVectorFull(addr uint32, v *Vector) error {
	end := uint64(addr) + vecBytes
	if end > uint64(pe.bankBytes) {
		return pe.StoreVector(addr, v, isa.VecMaskAll)
	}
	bank, err := pe.ensure(int(end))
	if err != nil {
		return err
	}
	b := (*[vecBytes]byte)(bank[addr:end])
	binary.LittleEndian.PutUint32(b[0:4], v[0])
	binary.LittleEndian.PutUint32(b[4:8], v[1])
	binary.LittleEndian.PutUint32(b[8:12], v[2])
	binary.LittleEndian.PutUint32(b[12:16], v[3])
	return nil
}

// VectorToPGSMFull is VectorToPGSM with every lane selected.
func (pg *PG) VectorToPGSMFull(addr uint32, v *Vector) error {
	end := uint64(addr) + vecBytes
	if end > uint64(len(pg.PGSM)) {
		return pg.VectorToPGSM(addr, v, isa.VecMaskAll)
	}
	b := (*[vecBytes]byte)(pg.PGSM[addr:end])
	binary.LittleEndian.PutUint32(b[0:4], v[0])
	binary.LittleEndian.PutUint32(b[4:8], v[1])
	binary.LittleEndian.PutUint32(b[8:12], v[2])
	binary.LittleEndian.PutUint32(b[12:16], v[3])
	return nil
}

// VectorFromPGSMFull is VectorFromPGSM with every lane selected.
func (pg *PG) VectorFromPGSMFull(addr uint32, v *Vector) error {
	end := uint64(addr) + vecBytes
	if end > uint64(len(pg.PGSM)) {
		return pg.VectorFromPGSM(addr, v, isa.VecMaskAll)
	}
	b := (*[vecBytes]byte)(pg.PGSM[addr:end])
	v[0] = binary.LittleEndian.Uint32(b[0:4])
	v[1] = binary.LittleEndian.Uint32(b[4:8])
	v[2] = binary.LittleEndian.Uint32(b[8:12])
	v[3] = binary.LittleEndian.Uint32(b[12:16])
	return nil
}

// DMABankToPGSM copies one n-byte bank beat into the PGSM — the
// functional ld_pgsm data movement. Bounds behavior and error text
// match ReadBank followed by WritePGSM exactly; the 16-byte beat (the
// DRAM column width) moves as a fixed-size copy.
func (pg *PG) DMABankToPGSM(pe *PE, bankAddr, pgsmAddr uint32, n int) error {
	bank, err := pe.ensure(int(bankAddr) + n)
	if err != nil {
		return err
	}
	if int(pgsmAddr)+n > len(pg.PGSM) {
		return fmt.Errorf("engine: PGSM write at %#x+%d beyond %d bytes", pgsmAddr, n, len(pg.PGSM))
	}
	if n == 16 {
		*(*[16]byte)(pg.PGSM[pgsmAddr:]) = *(*[16]byte)(bank[bankAddr:])
		return nil
	}
	copy(pg.PGSM[pgsmAddr:int(pgsmAddr)+n], bank[bankAddr:int(bankAddr)+n])
	return nil
}

// DMAPGSMToBank copies one n-byte PGSM beat into the bank — the
// functional st_pgsm data movement. Bounds behavior and error text
// match ReadPGSM followed by WriteBank exactly.
func (pg *PG) DMAPGSMToBank(pe *PE, pgsmAddr, bankAddr uint32, n int) error {
	if int(pgsmAddr)+n > len(pg.PGSM) {
		return fmt.Errorf("engine: PGSM access at %#x+%d beyond %d bytes", pgsmAddr, n, len(pg.PGSM))
	}
	bank, err := pe.ensure(int(bankAddr) + n)
	if err != nil {
		return err
	}
	if n == 16 {
		*(*[16]byte)(bank[bankAddr:]) = *(*[16]byte)(pg.PGSM[pgsmAddr:])
		return nil
	}
	copy(bank[bankAddr:int(bankAddr)+n], pg.PGSM[pgsmAddr:int(pgsmAddr)+n])
	return nil
}
