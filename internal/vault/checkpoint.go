package vault

// Checkpoint codec for one vault. A vault serializes at phase barriers
// only, where it is quiescent by construction: the issued queue and
// remote-response map are empty (drain ran) and every PG controller's
// request queue is empty, so the architectural state is exactly the
// core registers and memories, the clock and TSV timeline, the I$ tags
// (timing-relevant: a cold set costs a refill bubble), the fault
// decision-stream positions, the run's Stats so far, and the per-PG/PE
// memories and controller timing images.
//
// The program itself is serialized once machine-wide (vaults often
// share one *isa.Program); the vault image carries an index into the
// machine's program table. Decode validates everything against the
// target configuration and touches no vault; Apply is infallible on a
// validated image, so a corrupt checkpoint can never half-restore a
// vault. The machine must re-attach the fault plan (SetFaultPlan)
// BEFORE Apply: attaching resets the decision-stream counters that
// Apply then restores.

import (
	"fmt"

	"ipim/internal/ckpt"
	"ipim/internal/dram"
	"ipim/internal/engine"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// Image is a decoded, validated vault checkpoint, ready to be applied
// with ApplyCkpt. Produced only by DecodeVaultCkpt.
type Image struct {
	prog      *isa.Program
	pc        int
	now       int64
	done      bool
	tsvFree   int64
	ffSkipped int64
	faultN    uint64
	execN     uint64
	stats     sim.Stats
	crf       []int32
	vsm       []byte
	icache    []int64
	pgs       []pgImage
}

// pgImage is one process group's slice of a vault image.
type pgImage struct {
	pgsm []byte
	ctrl *dram.CtrlImage
	pes  []peImage
}

// peImage is one PE's slice of a vault image.
type peImage struct {
	dataRF []engine.Vector
	addrRF []int32
	bank   []byte
}

// HasProgram reports whether the image carries a loaded program (the
// machine's restore path cross-checks this against the checkpointed
// run's active vault set).
func (img *Image) HasProgram() bool { return img.prog != nil }

// ValidateForLoad checks that p can be installed on a vault built from
// cfg, applying exactly the checks Load performs. The checkpoint decode
// path validates restored programs with it up front so the later apply
// step cannot fail.
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
// dram.CaptureTiming.
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
		pg.Ctrl.EncodeCkpt(e, v.now)
		for _, pe := range pg.PEs {
			e.U32(uint32(len(pe.DataRF)))
			for _, vec := range pe.DataRF {
				for _, lane := range vec {
					e.U32(lane)
				}
			}
			e.I32s(pe.AddrRF)
			e.Bytes32(pe.BankPrefix())
		}
	}
}

// DecodeVaultCkpt parses one vault checkpoint from d and validates it
// against a vault built from cfg. progs is the machine's decoded,
// ValidateForLoad-checked program table the image's program index
// resolves into. Touches no vault; errors wrap ckpt.ErrCorrupt.
func DecodeVaultCkpt(d *ckpt.Dec, cfg *sim.Config, progs []*isa.Program) (*Image, error) {
	img := &Image{}
	progIndex := d.Int()
	img.pc = d.Int()
	img.now = d.I64()
	img.done = d.Bool()
	img.tsvFree = d.I64()
	img.ffSkipped = d.I64()
	img.faultN = d.U64()
	img.execN = d.U64()
	img.stats.DecodeCkpt(d)
	img.crf = d.I32s()
	img.vsm = d.Bytes32()
	img.icache = d.I64s()
	for pg := 0; pg < cfg.PGsPerVault && d.Err() == nil; pg++ {
		pi := pgImage{pgsm: d.Bytes32()}
		ctrl, err := dram.DecodeCtrlCkpt(d, cfg.PEsPerPG)
		if err != nil {
			return nil, err
		}
		pi.ctrl = ctrl
		for pe := 0; pe < cfg.PEsPerPG && d.Err() == nil; pe++ {
			nrf := int(d.U32())
			if d.Err() == nil && nrf != cfg.DataRFEntries {
				return nil, fmt.Errorf("vault: checkpoint has %d DataRF entries, config has %d: %w", nrf, cfg.DataRFEntries, ckpt.ErrCorrupt)
			}
			pj := peImage{dataRF: make([]engine.Vector, 0, cfg.DataRFEntries)}
			for r := 0; r < nrf && d.Err() == nil; r++ {
				var vec engine.Vector
				for l := range vec {
					vec[l] = d.U32()
				}
				pj.dataRF = append(pj.dataRF, vec)
			}
			pj.addrRF = d.I32s()
			pj.bank = d.Bytes32()
			pi.pes = append(pi.pes, pj)
		}
		img.pgs = append(img.pgs, pi)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	if progIndex < -1 || progIndex >= len(progs) {
		return nil, fmt.Errorf("vault: checkpoint references program %d of %d: %w", progIndex, len(progs), ckpt.ErrCorrupt)
	}
	if progIndex >= 0 {
		img.prog = progs[progIndex]
		if img.pc < 0 || img.pc > len(img.prog.Ins) {
			return nil, fmt.Errorf("vault: checkpoint pc %d outside program of %d instructions: %w", img.pc, len(img.prog.Ins), ckpt.ErrCorrupt)
		}
	} else if img.pc != 0 {
		return nil, fmt.Errorf("vault: checkpoint has pc %d with no program: %w", img.pc, ckpt.ErrCorrupt)
	}
	if img.now < 0 {
		return nil, fmt.Errorf("vault: checkpoint clock %d is negative: %w", img.now, ckpt.ErrCorrupt)
	}
	if len(img.crf) != cfg.CtrlRFEntries {
		return nil, fmt.Errorf("vault: checkpoint has %d CRF entries, config has %d: %w", len(img.crf), cfg.CtrlRFEntries, ckpt.ErrCorrupt)
	}
	if len(img.vsm) != cfg.VSMBytes {
		return nil, fmt.Errorf("vault: checkpoint has %d VSM bytes, config has %d: %w", len(img.vsm), cfg.VSMBytes, ckpt.ErrCorrupt)
	}
	wantIC := 0
	if cfg.ICacheLines > 0 && cfg.ICacheLineInstr > 0 {
		wantIC = cfg.ICacheLines
	}
	if len(img.icache) != wantIC {
		return nil, fmt.Errorf("vault: checkpoint has %d I$ sets, config has %d: %w", len(img.icache), wantIC, ckpt.ErrCorrupt)
	}
	for pg := range img.pgs {
		pi := &img.pgs[pg]
		if len(pi.pgsm) != cfg.PGSMBytes {
			return nil, fmt.Errorf("vault: checkpoint has %d PGSM bytes, config has %d: %w", len(pi.pgsm), cfg.PGSMBytes, ckpt.ErrCorrupt)
		}
		for pe := range pi.pes {
			pj := &pi.pes[pe]
			if len(pj.addrRF) != cfg.AddrRFEntries {
				return nil, fmt.Errorf("vault: checkpoint has %d AddrRF entries, config has %d: %w", len(pj.addrRF), cfg.AddrRFEntries, ckpt.ErrCorrupt)
			}
			if len(pj.bank) > cfg.BankBytes {
				return nil, fmt.Errorf("vault: checkpoint has %d-byte bank prefix, config bank is %d bytes: %w", len(pj.bank), cfg.BankBytes, ckpt.ErrCorrupt)
			}
		}
	}
	return img, nil
}

// ApplyCkpt rewrites the vault's architectural state from a validated
// image. The caller (the machine) must have re-attached the fault plan
// first — SetFaultPlan resets the decision-stream counters this method
// then restores. Never fails: all validation happened in
// DecodeVaultCkpt.
func (v *Vault) ApplyCkpt(img *Image) {
	v.prog = nil
	if img.prog != nil {
		if err := v.Load(img.prog); err != nil {
			panic(fmt.Sprintf("vault: validated checkpoint program failed to load: %v", err))
		}
	}
	v.pc = img.pc
	v.done = img.done
	v.now = img.now
	v.tsvFree = img.tsvFree
	v.ffSkipped = img.ffSkipped
	v.ffIssue = 0
	v.faultN = img.faultN
	v.execN = img.execN
	v.Stats = img.stats
	copy(v.CRF, img.crf)
	copy(v.VSM, img.vsm)
	copy(v.icache, img.icache)
	v.inflight = v.inflight[:0]
	for addr := range v.vsmReady {
		delete(v.vsmReady, addr)
	}
	for i, pg := range v.PGs {
		pi := &img.pgs[i]
		copy(pg.PGSM, pi.pgsm)
		pg.Ctrl.ApplyCtrlCkpt(pi.ctrl, v.now)
		for j, pe := range pg.PEs {
			pj := &pi.pes[j]
			copy(pe.DataRF, pj.dataRF)
			copy(pe.AddrRF, pj.addrRF)
			pe.RestoreBank(pj.bank)
		}
	}
}

// Program returns the vault's loaded program (nil when idle). The
// machine's checkpoint encoder uses it to build the deduplicated
// program table.
func (v *Vault) Program() *isa.Program { return v.prog }

// Quiescent reports whether the vault is at a point a checkpoint may be
// taken: no in-flight instructions and no pending remote responses.
// True at every phase barrier and between runs.
func (v *Vault) Quiescent() bool { return len(v.inflight) == 0 && len(v.vsmReady) == 0 }
