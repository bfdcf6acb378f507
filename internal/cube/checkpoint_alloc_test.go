package cube

import (
	"runtime"
	"testing"
)

// TestCheckpointBytesAllocatesOneContainer: a checkpoint is built in
// one buffer of its final size, so taking one allocates little beyond
// the container itself. With 64 KiB materialized in every bank, the
// container is dominated by bank bytes, as a real mid-run checkpoint is.
func TestCheckpointBytesAllocatesOneContainer(t *testing.T) {
	m := newTinyMachine(t)
	brightenInputs(t, m)
	if _, err := m.RunVault(0, 0, mustAssemble(t, brightenSrc)); err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, 64<<10)
	for i := range fill {
		fill[i] = byte(i * 7)
	}
	for c := 0; c < m.Cfg.Cubes; c++ {
		for v := 0; v < m.Cfg.VaultsPerCube; v++ {
			for pg := 0; pg < m.Cfg.PGsPerVault; pg++ {
				for pe := 0; pe < m.Cfg.PEsPerPG; pe++ {
					if err := m.WriteBank(c, v, pg, pe, 1<<12, fill); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	ck, err := m.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	const calls = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := m.CheckpointBytes(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	if limit := 1.25 * float64(len(ck)); perCall > limit {
		t.Errorf("CheckpointBytes allocates %.0f bytes per call for a %d-byte container, want at most %.0f",
			perCall, len(ck), limit)
	}
}
