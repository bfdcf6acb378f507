package cube

// Machine-level checkpoint/restore and deterministic resume.
//
// A checkpoint is a complete image of the machine's architectural state
// at a quiescent point — a phase barrier mid-run, or idle between runs.
// The payload schema (inside the internal/ckpt container) is, in order:
//
//  1. configuration digest (rejects restores onto a mismatched machine)
//  2. fault plan (so RestoreMachine needs no plan argument and the
//     decision streams pick up exactly where they left off)
//  3. deduplicated program table (vaults often share one *isa.Program,
//     and restore rebuilds that sharing; restored programs are new
//     pointers, so no timing-memo record, which is keyed on program
//     identity, can match them)
//  4. one vault image per vault, in (cube, vault) order, each holding
//     its DRAM controllers' state verbatim in absolute cycles
//  5. link state for every per-source port shard: each cube mesh's
//     shard, then the SERDES shard, in (cube, vault) order
//  6. the in-progress run, if any: budget, mode and the active vault
//     set (every run starts from a fresh machine, so the vault images
//     already hold the run's clocks and counters from its start)
//
// Every component encodes and decodes its own live fields; there is no
// second, decoded copy of the state. Restore decodes the payload into a
// fresh vault set and fresh link shards, built the way New builds them,
// and swaps them in only once the whole payload has decoded and
// validated. A corrupt or truncated checkpoint therefore returns a
// typed error (wrapping ckpt.ErrCorrupt / ckpt.ErrVersion /
// ErrCheckpointConfig) and leaves the machine exactly as it was —
// never half-restored.
//
// The correctness contract is differential and pinned by tests at the
// repository root: run-to-barrier-N → checkpoint → restore onto a fresh
// machine → ResumeContext must match the uninterrupted run bit for bit
// in pixels, sim.Stats and fault counters, at any worker count, with
// or without the timing memo.
// The memo never meets a checkpoint: a run with a checkpoint sink
// bypasses it (a checkpoint holds cycle-mode timing state that a
// functional replay never builds), ResumeContext never consults it,
// and Restore flushes it.

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ipim/internal/ckpt"
	"ipim/internal/fault"
	"ipim/internal/isa"
	"ipim/internal/sim"
	"ipim/internal/vault"
)

// ErrCheckpointConfig marks a checkpoint taken on a machine whose
// configuration differs from the one it is being restored onto.
// Restores require an identical sim.Config: geometry, timing and
// latency parameters all shape the serialized state.
var ErrCheckpointConfig = errors.New("cube: checkpoint configuration mismatch")

// ErrNoResume marks a ResumeContext call on a machine whose checkpoint
// carried no in-progress run (or whose resume was already consumed).
var ErrNoResume = errors.New("cube: no checkpointed run to resume")

// runSection is a run's bookkeeping: its active vault set and options.
// Machine.run holds the in-flight run's, so a mid-run checkpoint (taken
// by the barrier hook) can serialize it; Machine.resume holds a
// restored checkpoint's, without the CheckpointSink (which cannot be
// serialized), until ResumeContext consumes it.
type runSection struct {
	keys [][2]int
	opts sim.RunOptions
}

// configDigest is the compatibility string a checkpoint embeds.
// sim.Config is a flat value struct, so %+v covers every field and is
// stable for identical configurations.
func configDigest(cfg *sim.Config) string { return fmt.Sprintf("%+v", *cfg) }

// Checkpoint serializes the machine's full architectural state to w as
// one versioned, CRC-guarded container. The machine must be quiescent:
// idle between runs, or at a phase barrier (the RunOptions checkpoint
// hook calls it there). A non-quiescent vault is an error, not a panic,
// so misuse from the public API is recoverable.
func (m *Machine) Checkpoint(w io.Writer) error {
	data, err := m.CheckpointBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// CheckpointBytes is Checkpoint into a fresh byte slice (the form the
// serve journal and the periodic sink consume).
func (m *Machine) CheckpointBytes() ([]byte, error) {
	for c := range m.Vaults {
		for vid, v := range m.Vaults[c] {
			if !v.Quiescent() {
				return nil, fmt.Errorf("cube: checkpoint of non-quiescent vault %d/%d (mid-phase)", c, vid)
			}
		}
	}
	return m.sealCheckpoint(), nil
}

// sealCheckpoint builds the sealed checkpoint container in one buffer:
// the one sealing path of CheckpointBytes and the run's checkpoint sink.
// Callers have verified quiescence (vault.EncodeCkpt re-asserts it).
func (m *Machine) sealCheckpoint() []byte {
	// Program table: distinct loaded programs in first-appearance order
	// over the (cube, vault) walk, so the indices below are stable. It
	// is encoded once, outside ckpt.Build's two passes.
	var progs []*isa.Program
	var code [][]byte
	index := map[*isa.Program]int{}
	for _, cube := range m.Vaults {
		for _, v := range cube {
			if p := v.Program(); p != nil {
				if _, ok := index[p]; !ok {
					index[p] = len(progs)
					progs = append(progs, p)
					code = append(code, isa.EncodeProgram(p))
				}
			}
		}
	}
	digest := configDigest(&m.Cfg)
	return ckpt.Build(func(e *ckpt.Enc) {
		e.String(digest)
		m.encodeFaultPlan(e)
		e.U32(uint32(len(progs)))
		for i, p := range progs {
			e.String(p.Name)
			e.Bytes32(code[i])
		}
		m.encodeState(e, index)
	})
}

// encodeFaultPlan writes the fault plan by value (it is immutable and
// flat).
func (m *Machine) encodeFaultPlan(e *ckpt.Enc) {
	if p := m.fplan; p != nil {
		e.Bool(true)
		e.U64(p.Seed)
		e.F64(p.DRAMBitFlipRate)
		e.F64(p.DRAMMultiBitFraction)
		e.F64(p.LinkFaultRate)
		e.I64(p.LinkRetryPenalty)
		e.F64(p.ExecFaultRate)
		e.Int(p.ExecFailFirst)
	} else {
		e.Bool(false)
	}
}

// encodeState writes the vault images, the link shards and the
// in-progress run; index maps each loaded program to its table entry.
func (m *Machine) encodeState(e *ckpt.Enc, index map[*isa.Program]int) {
	// Vault images.
	for _, cube := range m.Vaults {
		for _, v := range cube {
			pi := -1
			if p := v.Program(); p != nil {
				pi = index[p]
			}
			v.EncodeCkpt(e, pi)
		}
	}

	// Interconnect: every port shard.
	for _, ps := range m.ports {
		for _, p := range ps {
			for _, st := range p.mesh {
				st.EncodeCkpt(e)
			}
			p.serdes.EncodeCkpt(e)
		}
	}

	// In-progress run, if any.
	if r := m.run; r != nil {
		e.Bool(true)
		e.I64(r.opts.MaxCycles)
		e.I64(r.opts.MaxPhaseSteps)
		e.I64(r.opts.CheckpointEvery)
		e.U8(uint8(r.opts.Mode))
		e.U32(uint32(len(r.keys)))
		for _, k := range r.keys {
			e.Int(k[0])
			e.Int(k[1])
		}
	} else {
		e.Bool(false)
	}
}

// Restore replaces the machine's vaults and link shards with ones
// decoded from a sealed checkpoint container (the bytes a
// CheckpointSink received or CheckpointBytes returned), and its fault
// plan with the checkpoint's. The whole payload is decoded into a fresh
// vault set first; on any error the machine is untouched. On success
// each vault keeps its predecessor's tracer, the timing memo is
// flushed, and any checkpointed in-progress run is armed for
// ResumeContext. Vault pointers taken before a Restore no longer belong
// to the machine.
func (m *Machine) Restore(data []byte) error {
	payload, err := ckpt.Open(data)
	if err != nil {
		return err
	}
	return m.restorePayload(payload)
}

// RestoreMachine builds a fresh machine for cfg and restores the
// checkpoint read from r onto it. cfg must equal the configuration the
// checkpoint was taken under (ErrCheckpointConfig otherwise); the fault
// plan travels inside the checkpoint, so none is passed here.
func RestoreMachine(r io.Reader, cfg sim.Config) (*Machine, error) {
	payload, err := ckpt.Read(r)
	if err != nil {
		return nil, err
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.restorePayload(payload); err != nil {
		return nil, err
	}
	return m, nil
}

// HasResume reports whether a restored checkpoint's in-progress run is
// waiting to be resumed with ResumeContext.
func (m *Machine) HasResume() bool { return m.resume != nil }

// restorePayload decodes one checkpoint payload into a fresh fabric
// and, once all of it has decoded and validated, swaps the fabric in.
func (m *Machine) restorePayload(payload []byte) error {
	d := ckpt.NewDec(payload)

	digest := d.String()
	if d.Err() == nil && digest != configDigest(&m.Cfg) {
		return fmt.Errorf("%w: checkpoint taken under a different configuration", ErrCheckpointConfig)
	}

	var plan *fault.Plan
	if d.Bool() {
		plan = &fault.Plan{
			Seed:                 d.U64(),
			DRAMBitFlipRate:      d.F64(),
			DRAMMultiBitFraction: d.F64(),
			LinkFaultRate:        d.F64(),
			LinkRetryPenalty:     d.I64(),
			ExecFaultRate:        d.F64(),
			ExecFailFirst:        d.Int(),
		}
		if d.Err() == nil {
			if err := plan.Validate(); err != nil {
				return fmt.Errorf("cube: checkpoint fault plan: %v: %w", err, ckpt.ErrCorrupt)
			}
		}
	}

	nProgs := int(d.U32())
	if d.Err() == nil && nProgs > d.Len()/8 {
		return fmt.Errorf("cube: checkpoint declares %d programs in %d bytes: %w", nProgs, d.Len(), ckpt.ErrCorrupt)
	}
	progs := make([]*isa.Program, 0, nProgs)
	for i := 0; i < nProgs && d.Err() == nil; i++ {
		name := d.String()
		blob := d.Bytes32()
		if d.Err() != nil {
			break
		}
		p, err := isa.DecodeProgram(blob)
		if err != nil {
			return fmt.Errorf("cube: checkpoint program %d: %v: %w", i, err, ckpt.ErrCorrupt)
		}
		p.Name = name
		if err := vault.ValidateForLoad(&m.Cfg, p); err != nil {
			return fmt.Errorf("cube: checkpoint program %d: %v: %w", i, err, ckpt.ErrCorrupt)
		}
		progs = append(progs, p)
	}

	if err := d.Err(); err != nil {
		return err
	}

	// Decode into a fresh fabric with the plan attached first:
	// attaching resets the fault decision-stream counters the images
	// then restore.
	vaults, ports := m.newFabric()
	attachFaults(vaults, ports, plan)
	for _, cube := range vaults {
		for _, v := range cube {
			if err := v.DecodeCkpt(d, progs); err != nil {
				return err
			}
		}
	}
	for _, ps := range ports {
		for _, p := range ps {
			for _, st := range p.mesh {
				if err := st.DecodeCkpt(d); err != nil {
					return err
				}
			}
			if err := p.serdes.DecodeCkpt(d); err != nil {
				return err
			}
		}
	}

	var rs *runSection
	if d.Bool() {
		rs = &runSection{opts: sim.RunOptions{
			MaxCycles:       d.I64(),
			MaxPhaseSteps:   d.I64(),
			CheckpointEvery: d.I64(),
			Mode:            sim.Mode(d.U8()),
		}}
		nActive := int(d.U32())
		if nVaults := m.Cfg.TotalVaults(); d.Err() == nil && (nActive == 0 || nActive > nVaults) {
			return fmt.Errorf("cube: checkpoint run section has %d active vaults of %d: %w", nActive, nVaults, ckpt.ErrCorrupt)
		}
		for i := 0; i < nActive && d.Err() == nil; i++ {
			rs.keys = append(rs.keys, [2]int{d.Int(), d.Int()})
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("cube: %d trailing bytes after checkpoint payload: %w", d.Len(), ckpt.ErrCorrupt)
	}
	if rs != nil {
		if rs.opts.Mode != sim.CycleMode && rs.opts.Mode != sim.FunctionalMode {
			return fmt.Errorf("cube: checkpoint run section has unknown mode %d: %w", rs.opts.Mode, ckpt.ErrCorrupt)
		}
		prev := [2]int{-1, -1}
		for _, k := range rs.keys {
			if k[0] < 0 || k[0] >= m.Cfg.Cubes || k[1] < 0 || k[1] >= m.Cfg.VaultsPerCube {
				return fmt.Errorf("cube: checkpoint run section references vault %v: %w", k, ckpt.ErrCorrupt)
			}
			if k[0] < prev[0] || (k[0] == prev[0] && k[1] <= prev[1]) {
				return fmt.Errorf("cube: checkpoint run section vault order broken at %v: %w", k, ckpt.ErrCorrupt)
			}
			prev = k
			if vaults[k[0]][k[1]].Program() == nil {
				return fmt.Errorf("cube: checkpoint run section vault %v has no program: %w", k, ckpt.ErrCorrupt)
			}
		}
	}

	// Everything decoded: swap the fabric in, keeping each vault's
	// tracer. Restored programs are new pointers, so no memo record
	// could match them; flushing drops the records all the same.
	for c, cube := range vaults {
		for vid, v := range cube {
			v.SetTracer(m.Vaults[c][vid].Tracer())
		}
	}
	m.Vaults, m.ports, m.fplan = vaults, ports, plan
	m.memo.flush()
	m.resume = rs
	return nil
}

// Resume is ResumeContext under a background context with zero
// options: the checkpointed budget and mode govern the resumed run.
func (m *Machine) Resume() (sim.Stats, error) {
	return m.ResumeContext(context.Background(), sim.RunOptions{})
}

// ResumeContext continues the in-progress run a restored checkpoint
// carried, from its barrier to completion, and returns the stats of the
// WHOLE run (the uninterrupted run's stats, bit for bit — the vault
// images and link shards carry the run's counters from its start, and
// nothing is reset here). The serialized budget and mode
// govern the resumed run, so budget exhaustion trips at the same
// instruction it would have without the interruption; opts overrides
// them field by field — its checkpoint sink (which cannot be
// serialized) always, and its non-zero MaxCycles, MaxPhaseSteps and
// CheckpointEvery in place of the serialized values, which is how a
// budget-aborted run is resumed with a looser budget. opts.Mode is
// ignored: a run finishes in the mode it started in. Each checkpoint's
// resume is consumed by one call: a second call returns ErrNoResume
// until another Restore.
func (m *Machine) ResumeContext(ctx context.Context, opts sim.RunOptions) (sim.Stats, error) {
	rs := m.resume
	if rs == nil {
		return sim.Stats{}, ErrNoResume
	}
	m.resume = nil
	var active []*vault.Vault
	for _, k := range rs.keys {
		active = append(active, m.Vaults[k[0]][k[1]])
	}
	run := rs.opts
	run.CheckpointSink = opts.CheckpointSink
	if opts.MaxCycles > 0 {
		run.MaxCycles = opts.MaxCycles
	}
	if opts.MaxPhaseSteps > 0 {
		run.MaxPhaseSteps = opts.MaxPhaseSteps
	}
	if opts.CheckpointEvery > 0 {
		run.CheckpointEvery = opts.CheckpointEvery
	}
	return m.finishRun(ctx, rs.keys, active, run)
}
