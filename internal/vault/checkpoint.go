package vault

// Checkpoint codec for one vault. A vault serializes at phase barriers
// only, where it is quiescent by construction: the issued queue and
// remote-response map are empty (drain ran) and every PG controller's
// request queue is empty, so the architectural state is exactly the
// core registers and memories, the clock and TSV timeline, the I$ tags
// (timing-relevant: a cold set costs a refill bubble), the fault
// decision-stream positions, the run's Stats so far, and the per-PG/PE
// memories, registers and controller timing images. The register slab
// is written PE by PE (each PE's DataRF, then its AddrRF, then its
// bank), the order of the format's per-PE records.
//
// The program itself is serialized once machine-wide (vaults often
// share one *isa.Program); the vault image carries an index into the
// machine's program table. DecodeCkpt validates every field against
// the vault's configuration as it writes it into a vault fresh out of
// New; the machine swaps the decoded vaults in only once the whole
// checkpoint has decoded, so a corrupt checkpoint never half-restores
// a live vault. The machine attaches the fault plan before decoding:
// attaching resets the decision-stream counters the image restores.

import (
	"fmt"
	"math"

	"ipim/internal/ckpt"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// ValidateForLoad checks that p can be installed on a vault built from
// cfg, applying exactly the checks Load performs. The checkpoint decode
// path validates restored programs with it once per program table
// entry, before any vault loads one.
func ValidateForLoad(cfg *sim.Config, p *isa.Program) error {
	if err := p.Validate(cfg.DataRFEntries, cfg.AddrRFEntries, cfg.CtrlRFEntries); err != nil {
		return err
	}
	for i := range p.Ins {
		in := &p.Ins[i]
		if in.ImmLabel >= 0 && in.Op != isa.OpSetiCRF {
			return fmt.Errorf("vault: instruction %d: label reference outside seti_crf", i)
		}
	}
	return nil
}

// EncodeCkpt appends the vault's checkpoint state to e. progIndex is
// the position of the vault's loaded program in the machine's program
// table (-1 when no program is loaded). The vault must be quiescent —
// at a phase barrier or idle between runs; panics otherwise, like
// dram.Controller.EncodeCkpt.
func (v *Vault) EncodeCkpt(e *ckpt.Enc, progIndex int) {
	if len(v.inflight) != 0 || len(v.vsmReady) != 0 {
		panic(fmt.Sprintf("vault: checkpoint of non-quiescent vault %d/%d (%d inflight, %d pending remote)",
			v.CubeID, v.ID, len(v.inflight), len(v.vsmReady)))
	}
	e.Int(progIndex)
	e.Int(v.pc)
	e.I64(v.now)
	e.Bool(v.done)
	e.I64(v.tsvFree)
	e.I64(v.ffSkipped)
	e.U64(v.faultN)
	e.U64(v.execN)
	v.Stats.EncodeCkpt(e)
	e.I32s(v.CRF)
	e.Bytes32(v.VSM)
	e.I64s(v.icache)
	for _, pg := range v.PGs {
		e.Bytes32(pg.PGSM)
		pg.Ctrl.EncodeCkpt(e)
		for peID, pe := range pg.PEs {
			p := pg.ID*v.Cfg.PEsPerPG + peID
			e.U32(uint32(v.Cfg.DataRFEntries))
			for r := 0; r < v.Cfg.DataRFEntries; r++ {
				for _, lane := range vec(v.dreg(r), p) {
					e.U32(lane)
				}
			}
			e.U32(uint32(v.Cfg.AddrRFEntries)) // as ckpt.Enc.I32s
			for r := 0; r < v.Cfg.AddrRFEntries; r++ {
				e.U32(v.areg(r)[p])
			}
			e.Bytes32(pe.BankPrefix())
		}
	}
}

// DecodeCkpt reads one vault checkpoint from d into v, which must be
// fresh out of New for the checkpoint's configuration, with the
// machine's fault plan attached: attaching resets the decision-stream
// counters the checkpoint then restores. progs is the machine's
// decoded, ValidateForLoad-checked program table the image's program
// index resolves into. Errors wrap ckpt.ErrCorrupt; after one, v is
// partly overwritten and must be discarded.
func (v *Vault) DecodeCkpt(d *ckpt.Dec, progs []*isa.Program) error {
	progIndex := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if progIndex < -1 || progIndex >= len(progs) {
		return fmt.Errorf("vault: checkpoint references program %d of %d: %w", progIndex, len(progs), ckpt.ErrCorrupt)
	}
	if progIndex >= 0 {
		if err := v.Load(progs[progIndex]); err != nil {
			return fmt.Errorf("vault: checkpoint program: %v: %w", err, ckpt.ErrCorrupt)
		}
	}
	v.pc = d.Int()
	v.now = d.I64()
	v.done = d.Bool()
	v.tsvFree = d.I64()
	v.ffSkipped = d.I64()
	v.faultN = d.U64()
	v.execN = d.U64()
	v.Stats.DecodeCkpt(d)
	crf := d.I32s()
	vsm := d.Bytes32()
	icache := d.I64s()
	if err := d.Err(); err != nil {
		return err
	}
	if v.prog != nil {
		if v.pc < 0 || v.pc > len(v.prog.Ins) {
			return fmt.Errorf("vault: checkpoint pc %d outside program of %d instructions: %w", v.pc, len(v.prog.Ins), ckpt.ErrCorrupt)
		}
	} else if v.pc != 0 {
		return fmt.Errorf("vault: checkpoint has pc %d with no program: %w", v.pc, ckpt.ErrCorrupt)
	}
	// The vault drains its controllers to math.MaxInt64/2, so no run
	// reaches a clock or TSV time at or past it.
	if v.now < 0 || v.now >= math.MaxInt64/2 || v.tsvFree >= math.MaxInt64/2 {
		return fmt.Errorf("vault: checkpoint clock %d (TSV free at %d) outside [0, %d): %w", v.now, v.tsvFree, int64(math.MaxInt64/2), ckpt.ErrCorrupt)
	}
	if len(crf) != len(v.CRF) {
		return fmt.Errorf("vault: checkpoint has %d CRF entries, config has %d: %w", len(crf), len(v.CRF), ckpt.ErrCorrupt)
	}
	if len(vsm) != len(v.VSM) {
		return fmt.Errorf("vault: checkpoint has %d VSM bytes, config has %d: %w", len(vsm), len(v.VSM), ckpt.ErrCorrupt)
	}
	if len(icache) != len(v.icache) {
		return fmt.Errorf("vault: checkpoint has %d I$ sets, config has %d: %w", len(icache), len(v.icache), ckpt.ErrCorrupt)
	}
	copy(v.CRF, crf)
	copy(v.VSM, vsm)
	copy(v.icache, icache)
	for _, pg := range v.PGs {
		pgsm := d.Bytes32()
		if d.Err() == nil && len(pgsm) != len(pg.PGSM) {
			return fmt.Errorf("vault: checkpoint has %d PGSM bytes, config has %d: %w", len(pgsm), len(pg.PGSM), ckpt.ErrCorrupt)
		}
		copy(pg.PGSM, pgsm)
		if err := pg.Ctrl.DecodeCkpt(d); err != nil {
			return err
		}
		for peID, pe := range pg.PEs {
			p := pg.ID*v.Cfg.PEsPerPG + peID
			nrf := int(d.U32())
			if d.Err() == nil && nrf != v.Cfg.DataRFEntries {
				return fmt.Errorf("vault: checkpoint has %d DataRF entries, config has %d: %w", nrf, v.Cfg.DataRFEntries, ckpt.ErrCorrupt)
			}
			for r := 0; r < v.Cfg.DataRFEntries; r++ {
				lanes := vec(v.dreg(r), p)
				for l := range lanes {
					lanes[l] = d.U32()
				}
			}
			addrRF := d.I32s()
			bank := d.Bytes32()
			if err := d.Err(); err != nil {
				return err
			}
			if len(addrRF) != v.Cfg.AddrRFEntries {
				return fmt.Errorf("vault: checkpoint has %d AddrRF entries, config has %d: %w", len(addrRF), v.Cfg.AddrRFEntries, ckpt.ErrCorrupt)
			}
			if len(bank) > v.Cfg.BankBytes {
				return fmt.Errorf("vault: checkpoint has %d-byte bank prefix, config bank is %d bytes: %w", len(bank), v.Cfg.BankBytes, ckpt.ErrCorrupt)
			}
			for r, x := range addrRF {
				v.areg(r)[p] = uint32(x)
			}
			pe.RestoreBank(bank)
		}
	}
	return d.Err()
}

// Program returns the vault's loaded program (nil when idle). The
// machine's checkpoint encoder uses it to build the deduplicated
// program table, and restore to check that every vault of a
// checkpointed run has one.
func (v *Vault) Program() *isa.Program { return v.prog }

// Quiescent reports whether the vault is at a point a checkpoint may be
// taken: no in-flight instructions and no pending remote responses.
// True at every phase barrier and between runs.
func (v *Vault) Quiescent() bool { return len(v.inflight) == 0 && len(v.vsmReady) == 0 }
