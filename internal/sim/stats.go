package sim

import (
	"fmt"
	"reflect"

	"ipim/internal/dram"
	"ipim/internal/isa"
	"ipim/internal/noc"
)

// StallReason classifies why the control core could not issue on a cycle.
type StallReason uint8

// The stall reasons, in StallCycles index order.
const (
	StallData       StallReason = iota // true/anti/output hazard in the issued queue
	StallQueueFull                     // issued-instruction queue at capacity
	StallDRAMQueue                     // PG memory request queue full
	StallBranch                        // taken-branch bubble
	StallSync                          // waiting at a barrier
	StallIFetch                        // instruction-cache miss refill
	NumStallReasons                    // array bound, not a reason
)

var stallNames = [...]string{
	StallData:      "data-hazard",
	StallQueueFull: "inst-queue-full",
	StallDRAMQueue: "dram-queue-full",
	StallBranch:    "branch-bubble",
	StallSync:      "sync-wait",
	StallIFetch:    "icache-miss",
}

// String returns the reason's short kebab-case name (as printed by
// ipim-trace and the stats dumps).
func (s StallReason) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return "stall(?)"
}

// Stats aggregates everything one vault run produces: cycle counts,
// per-category instruction counts (Fig. 11), stall breakdown, component
// busy counters (Fig. 13), event counts for the energy model (Fig. 7/9),
// and the embedded DRAM/NoC stats. Under an attached fault.Plan the
// embedded structs also carry the injected-fault tallies (DRAM ECC
// corrected/uncorrected, NoC link faults and retransmit flits); like
// every other counter they fold by reflection, so serial and parallel
// runs agree on them bit for bit.
type Stats struct {
	// Cycles is the wall clock in simulated cycles (1 cycle = 1 ns at
	// the paper's 1 GHz): the slowest vault's clock, max-folded by Add.
	Cycles int64
	Issued int64 // dynamic instructions issued

	InstByCategory [isa.NumCategories]int64 // issues per isa.Category
	// StallCycles breaks non-issuing cycles down by StallReason. A
	// wait the clock jumps over is charged to its reason in full; how
	// many of those cycles were jumped is a host-side tally kept
	// outside Stats, on Machine.FastForwardedCycles.
	StallCycles [NumStallReasons]int64

	// Component activity (event counts; each event occupies the unit for
	// one cycle, so utilization = events / Cycles).
	SIMDOps    int64 // vector operations executed (per PE per comp)
	IntALUOps  int64 // per-PE index calculations
	DataRFAcc  int64 // DataRF read+write accesses
	AddrRFAcc  int64 // AddrRF read+write accesses
	PGSMAcc    int64 // PGSM read+write accesses (16 B each)
	VSMAcc     int64 // VSM read+write accesses (16 B each)
	TSVBeats   int64 // 128-bit TSV bus beats
	PEBusBeats int64 // 128-bit PE-local bus beats
	SerdesBeat int64 // SERDES link beats (LinkBytesPerCycle each)

	// Remote traffic.
	RemoteReqs int64 // req instructions executed (remote bank reads)
	Syncs      int64 // sync instructions retired (barrier entries)

	DRAM dram.Stats // summed per-PG controller counters (FoldDRAMStats)
	NoC  noc.Stats  // summed per-source link-shard counters
}

// Two Stats fields are not plain event counters and fold specially:
//
//   - Cycles is a wall clock: concurrent vaults overlap, so Add takes
//     the max.
//   - NoC.MaxLatency is a watermark: Add takes the max.
//
// Every other int64 leaf — including array elements and the embedded
// DRAM/NoC structs — sums under Add. Add discovers those leaves by
// reflection (walkCounters), so a counter added to Stats, dram.Stats or
// noc.Stats can never be silently left out of the fold;
// sim.TestStatsFoldCoversEveryField pins the semantics field by field.

// Add accumulates other into s (for aggregating vaults or phases).
func (s *Stats) Add(o *Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	if o.NoC.MaxLatency > s.NoC.MaxLatency {
		s.NoC.MaxLatency = o.NoC.MaxLatency
	}
	walkCounters(s, o, func(d *int64, src int64) { *d += src })
}

// foldSpecial names the field paths Add handles explicitly (see the
// comment above); walkCounters skips them.
var foldSpecial = map[string]bool{
	"Cycles":         true,
	"NoC.MaxLatency": true,
}

// walkCounters invokes fn on every plain-counter int64 leaf of the two
// Stats in lockstep, recursing into embedded structs and arrays.
func walkCounters(dst, src *Stats, fn func(d *int64, s int64)) {
	walkValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), "", fn)
}

func walkValue(dst, src reflect.Value, path string, fn func(d *int64, s int64)) {
	switch dst.Kind() {
	case reflect.Int64:
		if foldSpecial[path] {
			return
		}
		fn(dst.Addr().Interface().(*int64), src.Int())
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			walkValue(dst.Index(i), src.Index(i), path, fn)
		}
	case reflect.Struct:
		t := dst.Type()
		for i := 0; i < dst.NumField(); i++ {
			p := t.Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			walkValue(dst.Field(i), src.Field(i), p, fn)
		}
	default:
		panic(fmt.Sprintf("sim: Stats field %s has unfoldable kind %s — teach walkValue about it", path, dst.Kind()))
	}
}

// IPC returns issued instructions per cycle (paper Fig. 13).
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// TotalInstructions returns the dynamic instruction count.
func (s *Stats) TotalInstructions() int64 {
	var n int64
	for _, c := range s.InstByCategory {
		n += c
	}
	return n
}

// CategoryFraction returns category c's share of dynamic instructions.
func (s *Stats) CategoryFraction(c isa.Category) float64 {
	total := s.TotalInstructions()
	if total == 0 {
		return 0
	}
	return float64(s.InstByCategory[c]) / float64(total)
}

// Utilization describes per-component busy fractions for Fig. 13. nPE is
// the number of PEs the stats cover (per-PE units are normalized by it).
func (s *Stats) Utilization(nPE int) map[string]float64 {
	if s.Cycles == 0 || nPE == 0 {
		return map[string]float64{}
	}
	perPE := float64(s.Cycles) * float64(nPE)
	return map[string]float64{
		"simd":   float64(s.SIMDOps) / perPE,
		"intalu": float64(s.IntALUOps) / perPE,
		"datarf": float64(s.DataRFAcc) / (2 * perPE), // multi-port: 2 ports
		"addrrf": float64(s.AddrRFAcc) / (2 * perPE),
		"dram":   float64(s.DRAM.Reads+s.DRAM.Writes) * float64(dramBurst) / perPE,
		"tsv":    float64(s.TSVBeats) / float64(s.Cycles),
	}
}

// dramBurst is the bank occupancy per access in cycles (tCCD).
const dramBurst = 2
