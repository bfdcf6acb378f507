package vault

import (
	"fmt"
	"sort"
	"strings"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

// TraceEntry records one issued instruction for offline analysis. All
// time fields are in simulated vault cycles.
type TraceEntry struct {
	PC    int        // program counter of the instruction
	Op    isa.Opcode // opcode, for aggregation without the program
	Issue int64      // cycle the instruction issued
	Stall int64      // issue-stall cycles attributed to this instruction
	// Reason classifies the stall (meaningful when Stall > 0).
	Reason sim.StallReason
	// FastForwarded counts how many of the Stall cycles the clock
	// crossed in jumps rather than simulating one by one. It is a
	// subset of Stall, never an extra charge. Reporting it separately
	// keeps skipped idle spans from being silently folded into the
	// dominant stall reason.
	FastForwarded int64
}

// Tracer collects per-instruction issue records. Attach one to a vault
// with SetTracer before running; Max bounds memory (0 = 1M entries).
// The zero value is ready to use. A Tracer must only be attached to one
// vault at a time: record is called from the vault's issue loop, which
// may run on a different goroutine each phase but never concurrently.
type Tracer struct {
	Entries []TraceEntry // recorded issues, in issue order
	Max     int          // record cap (0 = 1M); excess counted, not kept
	dropped int64
}

func (tr *Tracer) record(e TraceEntry) {
	max := tr.Max
	if max == 0 {
		max = 1 << 20
	}
	if len(tr.Entries) >= max {
		tr.dropped++
		return
	}
	tr.Entries = append(tr.Entries, e)
}

// Dropped reports how many records were discarded at the Max bound.
func (tr *Tracer) Dropped() int64 { return tr.dropped }

// SetTracer attaches a tracer to the vault (nil detaches). Not safe to
// call during an active run.
func (v *Vault) SetTracer(tr *Tracer) { v.tracer = tr }

// Tracer returns the attached tracer (nil when none). The machine's
// timing memo bypasses runs on traced vaults, whose tracers need every
// issue, and a restore carries each tracer over to the restored vault.
func (v *Vault) Tracer() *Tracer { return v.tracer }

// StallSite aggregates stall cycles at one program counter. All cycle
// fields are simulated vault cycles; FastForwarded is the portion of
// Stall crossed in event jumps (see TraceEntry.FastForwarded).
type StallSite struct {
	PC            int             // program counter of the site
	Op            isa.Opcode      // opcode at the site
	Count         int64           // times the instruction issued
	Stall         int64           // total stall cycles charged here
	FastForwarded int64           // portion of Stall crossed in jumps
	Reason        sim.StallReason // dominant reason of the last stalled issue
}

// TopStallSites returns the n program locations losing the most cycles.
func (tr *Tracer) TopStallSites(n int) []StallSite {
	agg := map[int]*StallSite{}
	for _, e := range tr.Entries {
		s, ok := agg[e.PC]
		if !ok {
			s = &StallSite{PC: e.PC, Op: e.Op, Reason: e.Reason}
			agg[e.PC] = s
		}
		s.Count++
		s.Stall += e.Stall
		s.FastForwarded += e.FastForwarded
		if e.Stall > 0 {
			s.Reason = e.Reason
		}
	}
	sites := make([]StallSite, 0, len(agg))
	for _, s := range agg {
		sites = append(sites, *s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Stall > sites[j].Stall })
	if len(sites) > n {
		sites = sites[:n]
	}
	return sites
}

// StallByOpcode aggregates stall cycles per opcode.
func (tr *Tracer) StallByOpcode() map[isa.Opcode]int64 {
	agg := map[isa.Opcode]int64{}
	for _, e := range tr.Entries {
		agg[e.Op] += e.Stall
	}
	return agg
}

// FastForwardedCycles totals the traced cycles the clock crossed in
// event jumps, across all recorded entries.
func (tr *Tracer) FastForwardedCycles() int64 {
	var ff int64
	for _, e := range tr.Entries {
		ff += e.FastForwarded
	}
	return ff
}

// Summary renders a human-readable trace digest against the program.
func (tr *Tracer) Summary(p *isa.Program, topN int) string {
	var b strings.Builder
	var total, stall, ff int64
	for _, e := range tr.Entries {
		total++
		stall += e.Stall
		ff += e.FastForwarded
	}
	fmt.Fprintf(&b, "traced %d issues, %d stall cycles", total, stall)
	if ff > 0 {
		fmt.Fprintf(&b, " (%d fast-forwarded)", ff)
	}
	if tr.dropped > 0 {
		fmt.Fprintf(&b, " (%d records dropped)", tr.dropped)
	}
	b.WriteByte('\n')
	byOp := tr.StallByOpcode()
	type kv struct {
		op isa.Opcode
		st int64
	}
	var ops []kv
	for op, st := range byOp {
		ops = append(ops, kv{op, st})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].st > ops[j].st })
	b.WriteString("stall cycles by opcode:\n")
	for i, o := range ops {
		if i >= topN || o.st == 0 {
			break
		}
		fmt.Fprintf(&b, "  %-10s %12d\n", o.op, o.st)
	}
	b.WriteString("hottest stall sites:\n")
	for _, s := range tr.TopStallSites(topN) {
		if s.Stall == 0 {
			break
		}
		text := s.Op.String()
		if p != nil && s.PC < len(p.Ins) {
			text = isa.FormatInstruction(&p.Ins[s.PC])
		}
		extra := ""
		if s.FastForwarded > 0 {
			extra = fmt.Sprintf("  (ff %d)", s.FastForwarded)
		}
		fmt.Fprintf(&b, "  pc=%-6d %-12s x%-8d %10d cycles%s  %s\n",
			s.PC, s.Reason, s.Count, s.Stall, extra, text)
	}
	return b.String()
}
