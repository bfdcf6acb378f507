package vault

import (
	"errors"
	"testing"
	"time"

	"ipim/internal/ckpt"
	"ipim/internal/isa"
	"ipim/internal/sim"
)

// TestHostileCkptClockFinishesOrFails: a checkpoint whose CRC is valid
// can still carry any vault clock. A clock at or past the drain horizon
// is corrupt. One just below it restores, and the first DRAM access then
// meets a refresh backlog of ~10^15 epochs, which the controller must
// settle at once: the run finishes within a second either way.
func TestHostileCkptClockFinishesOrFails(t *testing.T) {
	cfg := sim.TestTiny()
	prog, err := isa.Assemble(ckptSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, clock := range []int64{1<<62 - 1<<20, 1<<62 + 5} {
		src := New(&cfg, 0, 0, nil)
		if err := src.Load(prog); err != nil {
			t.Fatal(err)
		}
		src.now = clock
		dst := New(&cfg, 0, 0, nil)
		if err := dst.DecodeCkpt(ckpt.NewDec(encodeVault(t, src, 0)), []*isa.Program{prog}); err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Errorf("clock %d: err = %v, want ErrCorrupt", clock, err)
			}
			continue
		}
		done := make(chan error, 1)
		go func() {
			for {
				finished, err := dst.RunPhase()
				if err != nil || finished {
					done <- err
					return
				}
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("clock %d: run failed: %v", clock, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("clock %d: restored run still going after 1s", clock)
		}
	}
}
