package vault

import (
	"strings"
	"testing"

	"ipim/internal/isa"
	"ipim/internal/sim"
)

func TestTracerRecordsIssuesAndStalls(t *testing.T) {
	v := newTestVault(t)
	tr := &Tracer{}
	v.SetTracer(tr)
	// A dependent fmac chain guarantees data-hazard stalls.
	p, err := isa.Assemble(`
comp fmac vv d1, d0, d0, vm=0xf, sm=*
comp fmac vv d1, d1, d1, vm=0xf, sm=*
comp fmac vv d1, d1, d1, vm=0xf, sm=*
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunPhase(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 3 {
		t.Fatalf("traced %d entries, want 3", len(tr.Entries))
	}
	// The first instruction pays only the cold I$ refill.
	if tr.Entries[0].Stall != int64(v.Cfg.ICacheMissCost) || tr.Entries[0].Reason != sim.StallIFetch {
		t.Errorf("first instruction: stall=%d reason=%v, want cold icache miss",
			tr.Entries[0].Stall, tr.Entries[0].Reason)
	}
	if tr.Entries[1].Stall == 0 || tr.Entries[1].Reason != sim.StallData {
		t.Errorf("dependent fmac: stall=%d reason=%v", tr.Entries[1].Stall, tr.Entries[1].Reason)
	}
	sites := tr.TopStallSites(5)
	if len(sites) == 0 || sites[0].Stall == 0 {
		t.Fatalf("no stall sites: %+v", sites)
	}
	byOp := tr.StallByOpcode()
	if byOp[isa.OpComp] == 0 {
		t.Error("comp stalls not aggregated")
	}
	sum := tr.Summary(p, 5)
	for _, want := range []string{"traced 3 issues", "comp", "data-hazard"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestTracerMaxBound(t *testing.T) {
	tr := &Tracer{Max: 2}
	for i := 0; i < 5; i++ {
		tr.record(TraceEntry{PC: i})
	}
	if len(tr.Entries) != 2 || tr.Dropped() != 3 {
		t.Fatalf("entries=%d dropped=%d", len(tr.Entries), tr.Dropped())
	}
}

// TestTracerFastForwardAttribution is the regression test for skipped
// idle spans in the trace: a run whose waits the clock jumps over must
// report the skipped cycles as their own FastForwarded category — a
// subset of Stall, not an extra charge silently folded into the
// dominant stall reason — and the per-site aggregation and the summary
// must surface it.
func TestTracerFastForwardAttribution(t *testing.T) {
	v := newTestVault(t)
	tr := &Tracer{}
	v.SetTracer(tr)
	p, err := isa.Assemble(`
comp fmac vv d1, d0, d0, vm=0xf, sm=*
comp fmac vv d1, d1, d1, vm=0xf, sm=*
comp fmac vv d1, d1, d1, vm=0xf, sm=*
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := v.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunPhase(); err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Entries {
		if e.FastForwarded > e.Stall {
			t.Errorf("entry %d: FastForwarded=%d exceeds Stall=%d — skipped spans must be a subset of the stall charge",
				i, e.FastForwarded, e.Stall)
		}
	}
	if tr.FastForwardedCycles() == 0 {
		t.Error("traced no skipped cycles — the dependent chain should jump its data-hazard waits")
	}
	var siteFF int64
	for _, s := range tr.TopStallSites(5) {
		siteFF += s.FastForwarded
	}
	if siteFF != tr.FastForwardedCycles() {
		t.Errorf("stall sites account %d fast-forwarded cycles, tracer total %d", siteFF, tr.FastForwardedCycles())
	}
	if sum := tr.Summary(nil, 5); !strings.Contains(sum, "fast-forwarded") {
		t.Errorf("summary does not surface the fast-forwarded category:\n%s", sum)
	}
}
