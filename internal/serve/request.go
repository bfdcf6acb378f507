package serve

// The request path the three run endpoints share. Every run request
// goes through parseRun (method, readiness, query, capped body); each
// handler then decodes its own input. /v1/process and /v1/stream fetch
// one artifact (cache, compile on a miss, tuner enqueue), run it under
// its tuned DRAM policies and set the same headers. Every run of every
// endpoint is summed by one tally, which feeds the metrics and the
// degrade window once per request. Failures map onto HTTP statuses in
// failRun.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ipim"
	"ipim/internal/autotune"
	"ipim/internal/obs"
)

// runRequest is a run request as parseRun admitted it.
type runRequest struct {
	wl      ipim.Workload // unset on /v1/simb
	optName string
	opts    ipim.Options
	run     ipim.RunOptions // the cycle budget and the mode
	timeout time.Duration
	body    []byte
}

// parseRun is the admission and parse step of the run endpoints. It
// checks, in order, the method, readiness, the workload and opts (not
// on /v1/simb, which runs raw assembly), the timeout, the max_cycles
// budget, the mode (not on /v1/simb either) and the capped body. It
// answers the first failure itself and then reports false.
func (s *Server) parseRun(w http.ResponseWriter, r *http.Request) (req runRequest, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return req, false
	}
	// A journal backlog still admits runs: re-submissions are what
	// resume the journaled jobs.
	if v := s.health(); v.state == "draining" || v.state == "degraded" {
		v.refuse(w)
		return req, false
	}
	if code, err := s.parseQuery(&req, r.URL.Path, r.URL.Query()); err != nil {
		http.Error(w, err.Error(), code)
		return req, false
	}
	req.body, ok = obs.ReadBody(w, r, s.cfg.MaxBodyBytes)
	return req, ok
}

// parseQuery resolves a run request's query parameters into req, or
// returns the status and error to refuse the request with. The timeout
// defaults to Config.DefaultTimeout and is capped at maxTimeout; the
// max_cycles budget can tighten Config.MaxCycles, never loosen it.
func (s *Server) parseQuery(req *runRequest, path string, q url.Values) (int, error) {
	simb := path == "/v1/simb"
	if !simb {
		name := q.Get("workload")
		if name == "" {
			return http.StatusBadRequest, errors.New("missing required query parameter: workload")
		}
		wl, err := ipim.WorkloadByName(name)
		if err != nil {
			return http.StatusNotFound, err
		}
		if path == "/v1/stream" && wl.Build().Pipe.Histogram {
			return http.StatusBadRequest, fmt.Errorf("workload %s reduces to bins, not an image; histogram pipelines are not streamable", wl.Name)
		}
		req.wl = wl
		if req.optName = q.Get("opts"); req.optName == "" {
			req.optName = "opt"
		}
		if req.opts, err = ipim.OptionsByName(req.optName); err != nil {
			return http.StatusBadRequest, err
		}
	}
	req.timeout = s.cfg.DefaultTimeout
	if tq := q.Get("timeout"); tq != "" {
		d, err := time.ParseDuration(tq)
		if err != nil || d <= 0 {
			return http.StatusBadRequest, fmt.Errorf("bad timeout %q", tq)
		}
		req.timeout = d
	}
	req.timeout = min(req.timeout, maxTimeout)
	req.run.MaxCycles = s.cfg.MaxCycles
	if mq := q.Get("max_cycles"); mq != "" {
		n, err := strconv.ParseInt(mq, 10, 64)
		if err != nil || n <= 0 {
			return http.StatusBadRequest, fmt.Errorf("bad max_cycles %q (want a positive integer)", mq)
		}
		if s.cfg.MaxCycles == 0 || n < s.cfg.MaxCycles {
			req.run.MaxCycles = n
		}
	}
	if !simb {
		// "cycle" (the default) runs the full timing simulation;
		// "functional" gives identical pixels several times faster, with
		// no cycle or energy accounting.
		switch mq := q.Get("mode"); mq {
		case "", "cycle":
		case "functional":
			req.run.Mode = ipim.FunctionalMode
		default:
			return http.StatusBadRequest, fmt.Errorf("bad mode %q (want functional or cycle)", mq)
		}
	}
	return 0, nil
}

// artifact is a compiled artifact as the cache handed it out.
type artifact struct {
	*ipim.Artifact
	sched *autotune.Candidate // the tuned schedule; nil for the default
	hit   bool                // served without starting a compile
}

// fetch returns the artifact for the request's workload at w×h. A miss
// compiles on the request goroutine: compiling is host-side work, and
// only simulator runs occupy pooled machines. The key then goes to the
// background tuner, which queues each key once. A failed compile
// answers 400 and reports false.
func (s *Server) fetch(w http.ResponseWriter, req *runRequest, imgW, imgH int) (artifact, bool) {
	key := cacheKey{Workload: req.wl.Name, W: imgW, H: imgH, Opts: req.opts}
	art, sched, hit, err := s.cache.get(key, func() (*ipim.Artifact, error) {
		cfg := s.cfg.Machine
		return ipim.Compile(&cfg, req.wl.Build().Pipe, imgW, imgH, req.opts)
	})
	if err != nil {
		http.Error(w, "compile: "+err.Error(), http.StatusBadRequest)
		return artifact{}, false
	}
	s.tuner.maybeEnqueue(key, req.wl)
	return artifact{Artifact: art, sched: sched, hit: hit}, true
}

// setHeaders sets the headers every image response carries.
func (a *artifact) setHeaders(h http.Header, req *runRequest) {
	h.Set("X-Ipim-Workload", req.wl.Name)
	h.Set("X-Ipim-Config", req.optName)
	h.Set("X-Ipim-Image", fmt.Sprintf("%dx%d", a.Plan.ImgW, a.Plan.ImgH))
	h.Set("X-Ipim-Cache", cacheLabel(a.hit))
	h.Set("X-Ipim-Schedule", scheduleLabel(a.sched))
	h.Set("X-Ipim-Mode", req.run.Mode.String())
}

// tunedJob wraps fn to run under the artifact's tuned DRAM policies.
// They steer timing only, never data, and the machine gets the
// configured policies back before it returns to the pool.
func (s *Server) tunedJob(a *artifact, fn jobFunc) jobFunc {
	if a.sched == nil {
		return fn
	}
	return func(ctx context.Context, m *ipim.Machine) error {
		m.SetDRAMPolicy(a.sched.Page, a.sched.Sched)
		defer m.SetDRAMPolicy(s.cfg.Machine.Page, s.cfg.Machine.Sched)
		return fn(ctx, m)
	}
}

// tally sums the simulated accounting of one request's runs: every
// plane, frame or SIMB run adds its Stats.
type tally struct {
	runs, cycles, issued int64
	energyJ              float64
	// Injected-fault accounting (zero without a fault plan).
	injected    int64 // DRAM flip events + link faults
	corrected   int64 // ECC-corrected DRAM events
	uncorrected int64 // detected-uncorrectable DRAM events
}

// add sums one run on a machine of configuration cfg.
func (t *tally) add(st *ipim.Stats, cfg *ipim.Config) {
	t.runs++
	t.cycles += st.Cycles
	t.issued += st.Issued
	t.energyJ += ipim.EnergyOf(st, cfg.TotalPEs(), cfg.TotalVaults()).Total()
	t.corrected += st.DRAM.ECCCorrected
	t.uncorrected += st.DRAM.ECCUncorrected
	t.injected += st.DRAM.ECCCorrected + st.DRAM.ECCUncorrected + st.NoC.LinkFaults
}

// record feeds one completed request's tally into the metrics and the
// degrade window.
func (s *Server) record(t *tally, mode ipim.Mode) {
	s.degrade.observe(t.uncorrected)
	s.metrics.observeRun(t, mode)
}

// failRun maps a pool or run error onto the HTTP status contract: 429
// queue full, 503 draining or unrecovered transient fault (all with
// Retry-After), 504 deadline or cycle-budget exhaustion, 499
// client-cancelled, 500 anything else (including recovered worker
// panics).
func failRun(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, errDraining), errors.Is(err, ipim.ErrTransientFault):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ipim.ErrCycleBudget), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, ipim.ErrCancelled), errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), obs.StatusClientClosedRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func scheduleLabel(sched *autotune.Candidate) string {
	if sched != nil {
		return "tuned"
	}
	return "default"
}
