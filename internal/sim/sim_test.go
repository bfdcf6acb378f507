package sim

import (
	"testing"

	"ipim/internal/isa"
)

func TestDefaultConfigValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default config invalid: %v", err)
	}
	if c.PEsPerVault() != 32 {
		t.Errorf("PEsPerVault = %d, want 32", c.PEsPerVault())
	}
	if c.TotalPEs() != 8*16*32 {
		t.Errorf("TotalPEs = %d, want 4096", c.TotalPEs())
	}
	if c.TotalVaults() != 128 {
		t.Errorf("TotalVaults = %d", c.TotalVaults())
	}
}

func TestTinyAndOneVaultValid(t *testing.T) {
	for _, c := range []Config{TestTiny(), OneVault()} {
		if err := c.Validate(); err != nil {
			t.Errorf("config invalid: %v", err)
		}
	}
	tiny := TestTiny()
	if tiny.PEsPerVault() != 4 {
		t.Errorf("tiny PEsPerVault = %d, want 4", tiny.PEsPerVault())
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := Default()
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.Cubes = 0 }),
		mod(func(c *Config) { c.PEsPerPG = -1 }),
		mod(func(c *Config) { c.SIMDLen = 8 }),
		mod(func(c *Config) { c.PGsPerVault = 32 }), // 128 PEs > 64-bit mask
		mod(func(c *Config) { c.RowBytes = c.BankBytes * 2 }),
		mod(func(c *Config) { c.DataRFEntries = 4 }),
		mod(func(c *Config) { c.PGSMBytes = 0 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLatencyOf(t *testing.T) {
	c := Default()
	if c.LatencyOf(ClassAdd) != 4 || c.LatencyOf(ClassMul) != 5 ||
		c.LatencyOf(ClassMac) != 8 || c.LatencyOf(ClassLogic) != 1 {
		t.Fatal("Table III ALU latencies wrong")
	}
}

func TestStatsIPCAndCategories(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Error("IPC of empty stats must be 0")
	}
	s.Cycles = 100
	s.Issued = 63
	if s.IPC() != 0.63 {
		t.Errorf("IPC = %v", s.IPC())
	}
	s.InstByCategory[isa.CatComputation] = 30
	s.InstByCategory[isa.CatIndexCalc] = 10
	if s.TotalInstructions() != 40 {
		t.Errorf("TotalInstructions = %d", s.TotalInstructions())
	}
	if s.CategoryFraction(isa.CatIndexCalc) != 0.25 {
		t.Errorf("CategoryFraction = %v", s.CategoryFraction(isa.CatIndexCalc))
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cycles: 100, Issued: 50}
	a.InstByCategory[isa.CatComputation] = 5
	a.DRAM.Reads = 7
	b := Stats{Cycles: 80, Issued: 40}
	b.InstByCategory[isa.CatComputation] = 3
	b.DRAM.Reads = 3
	b.NoC.MaxLatency = 12
	a.Add(&b)
	if a.Cycles != 100 { // wall clock = max of concurrent vaults
		t.Errorf("Cycles = %d, want 100", a.Cycles)
	}
	if a.Issued != 90 || a.InstByCategory[isa.CatComputation] != 8 || a.DRAM.Reads != 10 {
		t.Errorf("Add mis-accumulated: %+v", a)
	}
	if a.NoC.MaxLatency != 12 {
		t.Errorf("NoC.MaxLatency = %d", a.NoC.MaxLatency)
	}
}

func TestUtilization(t *testing.T) {
	var s Stats
	s.Cycles = 1000
	s.SIMDOps = 4000 // 4 PEs x 1000 cycles fully busy
	s.TSVBeats = 500
	u := s.Utilization(4)
	if u["simd"] != 1.0 {
		t.Errorf("simd util = %v, want 1", u["simd"])
	}
	if u["tsv"] != 0.5 {
		t.Errorf("tsv util = %v, want 0.5", u["tsv"])
	}
	if len(s.Utilization(0)) != 0 {
		t.Error("zero-PE utilization must be empty")
	}
}

func TestStallReasonStrings(t *testing.T) {
	for r := StallData; r < NumStallReasons; r++ {
		if r.String() == "stall(?)" {
			t.Errorf("stall reason %d has no name", r)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[isa.ALUOp]ALUClass{
		isa.FAdd:   ClassAdd,
		isa.ISub:   ClassAdd,
		isa.FMin:   ClassAdd,
		isa.FCmpLT: ClassAdd,
		isa.FMul:   ClassMul,
		isa.FDiv:   ClassMul,
		isa.IMul:   ClassMul,
		isa.FMac:   ClassMac,
		isa.IMac:   ClassMac,
		isa.Shl:    ClassLogic,
		isa.And:    ClassLogic,
		isa.Mov:    ClassLogic,
		isa.I2F:    ClassLogic,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}
