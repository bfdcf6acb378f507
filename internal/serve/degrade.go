package serve

import (
	"sync"
	"time"
)

// degradeState implements degraded-mode load shedding under fault
// pressure: every completed run request — /v1/process, /v1/stream or
// /v1/simb — reports the uncorrected-ECC-error count summed over its
// runs, and when the mean over a sliding window of recent requests
// exceeds the configured threshold the server sheds run requests (503 +
// Retry-After) for a cooldown period. Tripping clears the window, so
// after the cooldown the first probe requests rebuild the estimate from
// scratch instead of re-tripping on stale history.
type degradeState struct {
	threshold float64
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu     sync.Mutex
	window []float64
	idx    int
	filled int
	until  time.Time
}

// newDegradeState builds the tracker; threshold <= 0 disables it.
func newDegradeState(threshold float64, window int, cooldown time.Duration) *degradeState {
	return &degradeState{
		threshold: threshold,
		cooldown:  cooldown,
		window:    make([]float64, window),
		now:       time.Now,
	}
}

// observe records the uncorrected-error count of one completed run and
// trips degraded mode when the windowed mean exceeds the threshold.
func (d *degradeState) observe(uncorrected int64) {
	if d.threshold <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.window[d.idx] = float64(uncorrected)
	d.idx = (d.idx + 1) % len(d.window)
	if d.filled < len(d.window) {
		d.filled++
	}
	var sum float64
	for _, v := range d.window[:d.filled] {
		sum += v
	}
	if sum/float64(d.filled) > d.threshold {
		d.until = d.now().Add(d.cooldown)
		d.idx, d.filled = 0, 0
	}
}

// active reports whether the server is currently shedding load and, if
// so, the whole seconds (>= 1) a client should wait before retrying.
func (d *degradeState) active() (retryAfter int, shedding bool) {
	if d.threshold <= 0 {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	left := d.until.Sub(d.now())
	if left <= 0 {
		return 0, false
	}
	return int((left + time.Second - 1) / time.Second), true
}
