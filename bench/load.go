package main

// The closed-loop load generator and the end-to-end statistics of a run.

import (
	"math"
	"sort"
	"sync"
	"time"
)

// env is a running system under test: the HTTP fleet or the direct
// machine.
type env interface {
	// do executes the i-th request of the workload's sequence.
	do(i int, tr *tracer) sample
	// clients is how many requests the closed loop keeps outstanding.
	clients() int
	close()
}

// sample is one executed request.
type sample struct {
	idx        int
	body       *body
	start, end time.Time
	frameAt    []time.Duration // stream: time to each output frame's last byte
	hit        bool            // served from the artifact cache
	issued     int64           // simulated instructions
	err        error           // failed, refused or wrong output
}

// pass is the outcome of one closed-loop pass.
type pass struct {
	samples []sample // in sequence order
	start   time.Time
	wall    time.Duration // start to the last completion
}

// drive runs a closed loop: each of e.clients() clients sends its next
// request only when its previous one has completed. The loop stops
// issuing after limit, at the end of a round of the sequence so every
// run has the same mix, or after count requests when count > 0. The
// requests issued are always the first ones of the sequence.
func drive(e env, round int, limit time.Duration, count int, tr *tracer) pass {
	start := time.Now()
	deadline := start.Add(limit)
	var mu sync.Mutex
	next, stopped := 0, false
	// claim hands out the next request index, or false once the run is
	// over; indices are claimed in order, so the sent set is a prefix.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case stopped, count > 0 && next >= count:
			return 0, false
		case count <= 0 && next%round == 0 && !time.Now().Before(deadline):
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	per := make([][]sample, e.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				per[c] = append(per[c], e.do(i, tr))
			}
		}(c)
	}
	wg.Wait()
	r := pass{start: start}
	for _, s := range per {
		r.samples = append(r.samples, s...)
	}
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].idx < r.samples[j].idx })
	for _, s := range r.samples {
		if d := s.end.Sub(start); d > r.wall {
			r.wall = d
		}
	}
	return r
}

// failed counts requests that errored or returned a wrong output.
func (r pass) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// perSecond is count per second of the run's wall time.
func (r pass) perSecond(count float64) float64 { return count / r.wall.Seconds() }

// latencies returns every request's latency in milliseconds.
func (r pass) latencies() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = ms(s.end.Sub(s.start))
	}
	return out
}

// issued totals the simulated instructions of the run.
func (r pass) issued() int64 {
	var n int64
	for _, s := range r.samples {
		n += s.issued
	}
	return n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the Harrell–Davis estimate of the p-th percentile
// (0 < p < 100): a weighted mean of all order statistics, the weights
// concentrated around rank p. Unlike a single order statistic it moves
// smoothly when the percentile falls between two latency modes, as the
// median of a mix of cheap and expensive kernels does.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := p/100*(n+1), (1-p/100)*(n+1)
	var q, prev float64
	for i, x := range s {
		cur := regIncBeta(a, b, float64(i+1)/n)
		q += (cur - prev) * x
		prev = cur
	}
	return q
}

// regIncBeta is the regularized incomplete beta function I_x(a, b).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction by the
// modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1.0; m <= 10000; m++ {
		// Even step, then odd step, of the continued fraction.
		for _, aa := range []float64{
			m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m)),
			-(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1)),
		} {
			d = 1 + aa*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + aa/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-12 {
			break
		}
	}
	return h
}

// median of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
