// Package sim holds the iPIM hardware configuration (paper Table III)
// and the statistics counters every simulation run produces. It sits at
// the bottom of the dependency graph so every other package can share
// one definition of the machine shape.
package sim

import (
	"fmt"

	"ipim/internal/dram"
	"ipim/internal/isa"
)

// Config is the full iPIM hardware configuration. Zero values are not
// meaningful; start from Default() and override.
type Config struct {
	// Hierarchy (Table III row 1).
	Cubes         int // 8
	VaultsPerCube int // 16
	PGsPerVault   int // 8
	PEsPerPG      int // 4

	// Queues.
	InstQueue    int // issued-instruction queue entries per core (64)
	DRAMReqQueue int // memory request queue entries per PG controller (16)

	// Datapath widths.
	SIMDLen int // 4 lanes x 32 b = 128 b

	// Storage sizes.
	BankBytes     int // 16 MB per PE
	RowBytes      int // DRAM row buffer bytes
	AddrRFEntries int // 64 x 32 b = 256 B
	DataRFEntries int // 64 x 128 b = 1 KB (Fig. 10a sweeps 16..128)
	CtrlRFEntries int // control core scalar register file
	PGSMBytes     int // 8 KB (Fig. 10b sweeps 2K..8K)
	VSMBytes      int // 256 KB

	// Compute latencies in cycles (Table III): applied to both the SIMD
	// unit and the per-PE integer ALU. Units are fully pipelined
	// (initiation interval 1).
	TAdd, TMul, TMac, TLogic int // 4 / 5 / 8 / 1

	// Memory-hierarchy access latencies in cycles (Table III: all 1).
	TAddrRF, TDataRF, TPGSM, TVSM int

	// Interconnect (Table III). TSERDES is a rational in cycles
	// (0.08 ns at 1 GHz = 8/100).
	TPEBus, TTSV, TNoCHop int // per-beat / per-hop latencies in cycles
	// TSERDESNum/TSERDESDen express the per-hop SERDES latency in
	// cycles as a rational: latency = ceil(hops*Num/Den).
	TSERDESNum, TSERDESDen  int64
	SERDESLinkBytesPerCycle int // "link width (SERDES) 4"
	NoCLinkBytesPerCycle    int // on-chip mesh link width (TSV-class, 16 B)

	// Core behavior.
	BranchPenalty int // extra bubble cycles for a taken jump/cjump

	// Instruction cache (paper Fig. 2b: the core fetches from an I$
	// backed by the VSM, which "acts as the instruction memory").
	ICacheLines     int // direct-mapped lines
	ICacheLineInstr int // instructions per line
	ICacheMissCost  int // cycles to refill a line from the VSM

	// DRAM policies and timing (Table III: open page, FR-FCFS).
	Timing dram.Timing
	Page   dram.PagePolicy  // row-buffer policy after each access
	Sched  dram.SchedPolicy // request scheduling discipline

	// PonB enables the process-on-base-die baseline (paper Sec. VII-C1):
	// all bank traffic serializes through the vault's shared TSVs.
	PonB bool
}

// Default returns the paper's Table III configuration.
func Default() Config {
	return Config{
		Cubes: 8, VaultsPerCube: 16, PGsPerVault: 8, PEsPerPG: 4,
		InstQueue: 64, DRAMReqQueue: 16,
		SIMDLen:   4,
		BankBytes: 16 << 20, RowBytes: 2 << 10,
		AddrRFEntries: 64, DataRFEntries: 64, CtrlRFEntries: 64,
		PGSMBytes: 8 << 10, VSMBytes: 256 << 10,
		TAdd: 4, TMul: 5, TMac: 8, TLogic: 1,
		TAddrRF: 1, TDataRF: 1, TPGSM: 1, TVSM: 1,
		TPEBus: 1, TTSV: 1, TNoCHop: 1,
		TSERDESNum: 8, TSERDESDen: 100,
		SERDESLinkBytesPerCycle: 4,
		NoCLinkBytesPerCycle:    16,
		BranchPenalty:           2,
		ICacheLines:             256,
		ICacheLineInstr:         8,
		ICacheMissCost:          4,
		Timing:                  dram.DefaultTiming(),
		Page:                    dram.OpenPage,
		Sched:                   dram.FRFCFS,
	}
}

// TestTiny returns a small configuration (1 cube, 2 vaults, 2 PGs x 2
// PEs) for fast unit and integration tests.
func TestTiny() Config {
	c := Default()
	c.Cubes = 1
	c.VaultsPerCube = 2
	c.PGsPerVault = 2
	c.PEsPerPG = 2
	c.BankBytes = 1 << 20
	return c
}

// TestTinyOneVault returns a single-vault tiny configuration (1 vault,
// 2 PGs x 2 PEs) used to test halo-exchange pipelines, which require a
// single-vault machine (DESIGN.md §2).
func TestTinyOneVault() Config {
	c := TestTiny()
	c.VaultsPerCube = 1
	return c
}

// OneVault returns the representative-vault bench configuration: the
// full Table III vault (8 PGs x 4 PEs) in a single-vault machine.
// See DESIGN.md §2 for the symmetric-replication argument.
func OneVault() Config {
	c := Default()
	c.Cubes = 1
	c.VaultsPerCube = 1
	return c
}

// PEsPerVault returns the PE count of one vault (the SIMB width).
func (c *Config) PEsPerVault() int { return c.PGsPerVault * c.PEsPerPG }

// TotalPEs returns the machine-wide PE count.
func (c *Config) TotalPEs() int {
	return c.Cubes * c.VaultsPerCube * c.PEsPerVault()
}

// TotalVaults returns the machine-wide vault count.
func (c *Config) TotalVaults() int { return c.Cubes * c.VaultsPerCube }

// ALULatency maps an op-class latency: add/sub 4, mul 5, mac 8,
// logic/other 1 (Table III).
type ALUClass uint8

// The ALU classes, in Table III latency order.
const (
	ClassAdd   ALUClass = iota // add/sub/min/max/compare (4 cycles)
	ClassMul                   // mul/div (5 cycles)
	ClassMac                   // multiply-accumulate (8 cycles)
	ClassLogic                 // shifts, bitwise, moves, converts (1 cycle)
)

// ClassOf maps an ALU op to its Table III latency class. The vault
// times comp and calc_arf with it, and the compiler's reorderer
// estimates their latencies with it.
func ClassOf(op isa.ALUOp) ALUClass {
	switch op {
	case isa.FAdd, isa.FSub, isa.IAdd, isa.ISub, isa.FMin, isa.FMax,
		isa.IMin, isa.IMax, isa.FCmpLT, isa.FCmpLE, isa.ICmpLT, isa.ICmpEQ,
		isa.FAbs, isa.FFloor:
		return ClassAdd
	case isa.FMul, isa.IMul, isa.FDiv:
		return ClassMul
	case isa.FMac, isa.IMac:
		return ClassMac
	}
	return ClassLogic
}

// LatencyOf returns the pipelined latency of an ALU class.
func (c *Config) LatencyOf(cl ALUClass) int {
	switch cl {
	case ClassAdd:
		return c.TAdd
	case ClassMul:
		return c.TMul
	case ClassMac:
		return c.TMac
	default:
		return c.TLogic
	}
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	pos := func(v int, name string) error {
		if v <= 0 {
			return fmt.Errorf("sim: %s must be positive, got %d", name, v)
		}
		return nil
	}
	checks := []struct {
		v    int
		name string
	}{
		{c.Cubes, "Cubes"}, {c.VaultsPerCube, "VaultsPerCube"},
		{c.PGsPerVault, "PGsPerVault"}, {c.PEsPerPG, "PEsPerPG"},
		{c.InstQueue, "InstQueue"}, {c.DRAMReqQueue, "DRAMReqQueue"},
		{c.SIMDLen, "SIMDLen"}, {c.BankBytes, "BankBytes"},
		{c.RowBytes, "RowBytes"}, {c.AddrRFEntries, "AddrRFEntries"},
		{c.DataRFEntries, "DataRFEntries"}, {c.CtrlRFEntries, "CtrlRFEntries"},
		{c.PGSMBytes, "PGSMBytes"}, {c.VSMBytes, "VSMBytes"},
	}
	for _, ch := range checks {
		if err := pos(ch.v, ch.name); err != nil {
			return err
		}
	}
	if c.PEsPerVault() > 64 {
		return fmt.Errorf("sim: %d PEs per vault exceeds the 64-bit simb_mask", c.PEsPerVault())
	}
	if c.SIMDLen != 4 {
		return fmt.Errorf("sim: SIMDLen must be 4 (128-bit bank interface), got %d", c.SIMDLen)
	}
	if c.RowBytes > c.BankBytes {
		return fmt.Errorf("sim: RowBytes %d exceeds BankBytes %d", c.RowBytes, c.BankBytes)
	}
	if c.DataRFEntries < 8 {
		return fmt.Errorf("sim: DataRFEntries %d too small for compiler temporaries (min 8)", c.DataRFEntries)
	}
	return nil
}

// Geometry returns the DRAM geometry derived from the config.
func (c *Config) Geometry() dram.Geometry {
	return dram.Geometry{BankBytes: c.BankBytes, RowBytes: c.RowBytes}
}
