package dram

import (
	"errors"
	"math/rand"
	"testing"

	"ipim/internal/ckpt"
)

// refreshLoop is the epoch-by-epoch refresh the closed form in refreshAt
// replaces: the reference it must agree with.
func refreshLoop(c *Controller, t int64) int64 {
	for t >= c.nextRefresh {
		start := max(c.nextRefresh, c.refUntil)
		for i := range c.banks {
			c.banks[i].openRow = -1
		}
		c.refUntil = start + int64(c.timing.TRFC)
		c.nextRefresh += int64(c.timing.TREFI)
		c.Stats.Refreshes++
	}
	return c.refUntil
}

// TestRefreshClosedFormMatchesLoop: on random small backlogs, with tRFC
// below, equal to and above tREFI, refreshAt leaves the same refresh
// epoch, blackout end, refresh count and precharged banks as the loop.
func TestRefreshClosedFormMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		tm := DefaultTiming()
		tm.TREFI = 1 + rng.Intn(50)
		tm.TRFC = 1 + rng.Intn(60)
		got := NewController(4, 16, tm, DefaultGeometry(), OpenPage, FRFCFS)
		got.nextRefresh = int64(tm.TREFI) * int64(1+rng.Intn(20))
		got.refUntil = got.nextRefresh + int64(rng.Intn(200)) - 100
		got.banks[rng.Intn(4)].openRow = rng.Intn(8)
		got.Stats.Refreshes = int64(rng.Intn(10))
		want := NewController(4, 16, tm, DefaultGeometry(), OpenPage, FRFCFS)
		want.nextRefresh, want.refUntil, want.Stats = got.nextRefresh, got.refUntil, got.Stats
		copy(want.banks, got.banks)

		now := got.nextRefresh + int64(rng.Intn(30*tm.TREFI)) - int64(tm.TREFI)
		g, w := got.refreshAt(now), refreshLoop(want, now)
		if g != w || got.nextRefresh != want.nextRefresh || got.refUntil != want.refUntil ||
			got.Stats != want.Stats || string(fmtBanks(got)) != string(fmtBanks(want)) {
			t.Fatalf("case %d (tREFI %d, tRFC %d, t %d): closed form gives resume %d, epoch %d, blackout %d, %d refreshes, banks %v; loop gives %d, %d, %d, %d, %v",
				i, tm.TREFI, tm.TRFC, now, g, got.nextRefresh, got.refUntil, got.Stats.Refreshes, got.banks,
				w, want.nextRefresh, want.refUntil, want.Stats.Refreshes, want.banks)
		}
	}
}

func fmtBanks(c *Controller) []byte {
	var b []byte
	for _, bs := range c.banks {
		b = append(b, byte(bs.openRow+1))
	}
	return b
}

// TestCtrlCkptRejectsHostileTimes: a refresh epoch no controller can
// reach, or a timestamp at or past the drain horizon, is corrupt.
func TestCtrlCkptRejectsHostileTimes(t *testing.T) {
	for name, set := range map[string]func(c *Controller){
		"epoch -2^50":        func(c *Controller) { c.nextRefresh = -1 << 50 },
		"epoch 0":            func(c *Controller) { c.nextRefresh = 0 },
		"epoch off the grid": func(c *Controller) { c.nextRefresh = int64(c.timing.TREFI) + 1 },
		"epoch at horizon": func(c *Controller) {
			c.nextRefresh = ckptHorizon - ckptHorizon%int64(c.timing.TREFI) + int64(c.timing.TREFI)
		},
		"blackout":    func(c *Controller) { c.refUntil = ckptHorizon },
		"bank timing": func(c *Controller) { c.banks[2].colReady = 1 << 62 },
		"ACT window":  func(c *Controller) { c.actTimes[0] = 1<<63 - 1 },
	} {
		src := newTestCtrl(OpenPage, FRFCFS)
		warmCtrl(t, src)
		set(src)
		if err := newTestCtrl(OpenPage, FRFCFS).DecodeCkpt(ckpt.NewDec(encodeCtrl(src))); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
