package engine

// Checkpoint accessors for the PE's lazily materialized bank storage.
// Only the materialized prefix is serialized — unmaterialized DRAM
// reads as zero on both sides of a restore, so the prefix plus the bank
// capacity fully determines the bank's contents. RestoreBank also
// zeroes any materialized tail beyond the prefix, so its result never
// depends on what the bank held before.

import "fmt"

// BankPrefix returns the PE's materialized bank prefix (nil when the
// bank was never touched). Owner-only, like ReadBank: the caller must
// be the vault's goroutine at a quiescent point, and must not retain
// the slice across bank writes.
func (pe *PE) BankPrefix() []byte { return pe.bankSlice() }

// RestoreBank rewrites the bank so its contents are exactly data
// followed by zeros: the prefix is copied in and any longer already-
// materialized tail is cleared. Owner-only. The prefix must fit the
// bank; callers validate against the configured bank capacity before
// applying (the checkpoint decode path does), so exceeding it is a
// programming error and panics.
func (pe *PE) RestoreBank(data []byte) {
	if len(data) > pe.bankBytes {
		panic(fmt.Sprintf("engine: restoring %d-byte prefix into %d-byte bank", len(data), pe.bankBytes))
	}
	bank := pe.bankSlice()
	if len(data) > len(bank) {
		var err error
		bank, err = pe.ensure(len(data))
		if err != nil {
			panic(err) // unreachable: length checked above
		}
	}
	copy(bank, data)
	for i := len(data); i < len(bank); i++ {
		bank[i] = 0
	}
}
