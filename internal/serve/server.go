// Package serve wraps the iPIM simulator in a production-style image
// processing service: a stdlib-only HTTP daemon that accepts netpbm
// images, runs them through a Table II workload on a pool of simulated
// accelerators, and returns the processed image together with the
// simulated cycle/energy/host-transfer accounting.
//
// The subsystem has three layers:
//
//   - a compiled-artifact LRU cache with single-flight compilation
//     (N concurrent requests for an uncached key trigger one Compile);
//   - a machine pool — fixed ipim.Machine workers behind a bounded
//     dispatch queue, giving backpressure (429/503 + Retry-After),
//     per-request deadlines with cooperative mid-run cancellation,
//     hard cycle budgets, a hang watchdog, panic isolation and
//     graceful drain;
//   - an observability surface — /healthz (liveness), /readyz
//     (readiness), Prometheus-format /metrics and structured access
//     logs.
//
// This is the paper's datacenter deployment scenario (Sec. VI): a
// standalone accelerator behind a host that amortizes PCIe transfers
// across a stream of offloaded kernels.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipim"
	"ipim/internal/host"
	"ipim/internal/obs"
)

// Config configures a Server. The zero value is usable: it serves the
// representative one-vault machine with modest pool and cache sizes.
type Config struct {
	// Machine is the simulated accelerator configuration. Zero value:
	// ipim.OneVaultConfig().
	Machine ipim.Config
	// Workers is the number of pooled machines (default 2).
	Workers int
	// MachineParallelism bounds each pooled machine's per-phase
	// simulation goroutines (ipim Machine.SetParallelism). Results are
	// bit-identical at any setting (see DESIGN.md, "Parallel vault
	// simulation"). Default (0) keeps machines serial — with several
	// pooled machines sharing the host that maximizes aggregate
	// throughput; raise it (e.g. to runtime.GOMAXPROCS(0)) to trade
	// throughput for lower single-request latency on an idle server.
	MachineParallelism int
	// QueueCap bounds the dispatch queue (default 64). A full queue
	// rejects with 429.
	QueueCap int
	// CacheCap bounds the compiled-artifact LRU (default 32 entries).
	CacheCap int
	// DefaultTimeout applies when the request has no timeout query
	// parameter (default 60s). Client-requested timeouts are capped at
	// 5 minutes.
	DefaultTimeout time.Duration
	// MaxCycles is the hard per-run simulated-cycle budget. It applies
	// to every run and caps the per-request max_cycles query parameter
	// (clients may tighten the budget, never loosen it). A run that
	// exhausts it fails with 504 and increments
	// ipim_cycle_budget_exceeded_total. 0 disables the server-wide
	// budget (per-request budgets still apply).
	MaxCycles int64
	// WatchdogInterval is the stuck-worker scan period of the pool's
	// hang watchdog (default 250ms; negative disables it).
	WatchdogInterval time.Duration
	// MaxBodyBytes bounds the request body (default 64 MiB).
	MaxBodyBytes int64
	// Bus is the modeled host attachment (default PCIe 3.0 x16).
	Bus host.Bus
	// Logger receives structured access logs (default: discard).
	Logger *log.Logger

	// Faults attaches a deterministic fault-injection plan to every
	// pooled machine (nil: faults disabled). See internal/fault.
	Faults *ipim.FaultPlan
	// MaxRetries bounds in-place retries of a run that failed with a
	// transient injected fault (ipim.ErrTransientFault). Default 2;
	// negative disables retries.
	MaxRetries int

	// CheckpointDir enables crash-recovery journaling: every journaled
	// run streams a machine checkpoint into <dir>/<jobID>.ckpt at phase
	// barriers, and a request whose job crashed (worker panic, process
	// death) resumes from the last checkpoint instead of restarting.
	// Empty (the default) disables journaling.
	CheckpointDir string
	// CheckpointEvery is the minimum simulated-cycle spacing between
	// journal checkpoints (default 1: every covered barrier). Larger
	// values trade resume granularity for journal write traffic.
	CheckpointEvery int64
	// DegradeThreshold trips degraded mode when the mean uncorrected
	// ECC error count over the last 16 completed run requests exceeds
	// it; while degraded the server sheds run requests with 503 +
	// Retry-After for 5 seconds. 0 disables degraded mode.
	DegradeThreshold float64

	// TuneWorkers enables background schedule tuning: unknown artifact
	// keys are queued for an internal/autotune search using this many
	// parallel evaluation workers, and winners that clear TuneMargin
	// are swapped into the artifact cache (X-Ipim-Schedule: tuned).
	// 0 (the default) disables tuning.
	TuneWorkers int
	// TuneDB is the persistent results-store journal (JSONL). Empty:
	// memory-only — tuning restarts from scratch on every boot. A warm
	// journal (e.g. written by ipim-tune -db) short-circuits searches.
	TuneDB string
	// TuneMargin is the minimum improvement ratio
	// (default-schedule cycles / tuned cycles) a search winner needs
	// before the artifact is swapped (default 1.02; 1.0 swaps on any
	// non-regression).
	TuneMargin float64

	// StreamMaxFrames caps the frame count of one /v1/stream body
	// (default 1024). The body size is already bounded by MaxBodyBytes;
	// this bounds per-frame bookkeeping.
	StreamMaxFrames int
	// RecoveryGrace bounds how long /readyz reports 503 for the
	// checkpoint-journal backlog found at boot (default 30s). Within the
	// grace window a worker that restarted with interrupted jobs on disk
	// stays out of the router's ring until every boot-time entry has been
	// resumed (or discarded); after it, the worker goes ready regardless,
	// so a backlog nobody re-submits cannot park the worker forever.
	// Negative disables the gate.
	RecoveryGrace time.Duration

	// RouterURL enables fleet worker mode: the server registers with the
	// ipim-router at this base URL and heartbeats its health state
	// (ready/backlog/degraded/draining) every HeartbeatInterval. Empty
	// (the default) is standalone mode.
	RouterURL string
	// AdvertiseAddr is the base URL the router should reach this worker
	// at (required when RouterURL is set), e.g. "http://10.0.0.7:8080".
	AdvertiseAddr string
	// HeartbeatInterval is the registration beat period (default 1s).
	HeartbeatInterval time.Duration

	// ChaosStreamStallAfterFrames is a chaos knob for the fleet
	// failover path: the first stream stalls forever after this many
	// output frames, so an external harness can SIGKILL the worker at a
	// deterministic point. 0 disables it. SetStreamChaos arms the
	// in-process variant, which aborts the connection instead.
	ChaosStreamStallAfterFrames int
}

func (c *Config) fillDefaults() {
	if c.Machine.Cubes == 0 {
		c.Machine = ipim.OneVaultConfig()
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.MachineParallelism == 0 {
		c.MachineParallelism = 1
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.CacheCap == 0 {
		c.CacheCap = 32
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = 250 * time.Millisecond
	}
	if c.Bus.BytesPerNS == 0 {
		c.Bus = host.PCIe3x16()
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
	if c.TuneMargin == 0 {
		c.TuneMargin = 1.02
	}
	if c.StreamMaxFrames == 0 {
		c.StreamMaxFrames = 1024
	}
	if c.RecoveryGrace == 0 {
		c.RecoveryGrace = 30 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
}

// maxTimeout caps a client's timeout query parameter.
const maxTimeout = 5 * time.Minute

// Server is the HTTP image-processing service. Create with New, mount
// it (it implements http.Handler), and call Shutdown on SIGTERM.
type Server struct {
	cfg     Config
	pool    *pool
	cache   *artifactCache
	metrics *metrics
	meter   *host.Meter
	tuner   *tuner // nil when background tuning is disabled
	mux     *http.ServeMux

	journal  *ckptJournal   // nil when crash-recovery journaling is disabled
	recovery *recoveryState // nil without a journal; gates /readyz on the boot backlog

	// Knobs that only in-package tests change; New sets the values
	// every deployment runs with.
	degrade      *degradeState // window of 16 requests, 5s cooldown
	backoff      *jitter       // seeded from the clock
	retryBackoff time.Duration // base of the full-jitter retry wait (25ms)
	// chaosCrashAfter makes a fresh (non-resumed) journaled plane run
	// panic on its worker after writing this many checkpoints, at most
	// once per job, so tests exercise the recovery path
	// deterministically under load. 0 disables it.
	chaosCrashAfter int

	heartbeat *heartbeater // nil in standalone mode

	// chaosCrashed tracks job ids that already took their injected
	// chaos crash, so a chaos run makes progress on the second attempt.
	chaosCrashed sync.Map
	// chaosStreamAbort is the SetStreamChaos knob, atomic so tests can
	// re-arm it at runtime; chaosStreamClaimed makes either stream-chaos
	// knob single-shot.
	chaosStreamAbort   atomic.Int64
	chaosStreamClaimed atomic.Bool

	draining chan struct{} // closed when Shutdown begins
}

// New builds the pool, cache and routes.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	p, err := newPool(cfg.Machine, cfg.Workers, cfg.QueueCap, cfg.MachineParallelism, cfg.Faults,
		cfg.WatchdogInterval, cfg.Logger)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Server, error) {
		p.drain(context.Background())
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		pool:         p,
		cache:        newArtifactCache(cfg.CacheCap),
		meter:        host.NewMeter(cfg.Bus),
		degrade:      newDegradeState(cfg.DegradeThreshold, 16, 5*time.Second),
		backoff:      newJitter(time.Now().UnixNano()),
		retryBackoff: 25 * time.Millisecond,
		mux:          http.NewServeMux(),
		draining:     make(chan struct{}),
	}
	if cfg.CheckpointDir != "" {
		j, err := newCkptJournal(cfg.CheckpointDir)
		if err != nil {
			return fail(err)
		}
		s.journal = j
		s.recovery = newRecoveryState(j.ids(), cfg.RecoveryGrace)
		if n := s.recovery.backlog(); n > 0 {
			cfg.Logger.Printf("checkpoint journal: %d interrupted job(s) in %s awaiting resume", n, cfg.CheckpointDir)
		}
	}
	if s.tuner, err = newTuner(&s.cfg, s.cache, s.pool); err != nil {
		return fail(err)
	}
	s.metrics = newMetrics(s)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", s.metrics.reg)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/v1/process", s.handleProcess)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/v1/simb", s.handleSimb)
	s.mux.HandleFunc("/v1/tune", s.handleTune)
	if cfg.RouterURL != "" {
		if err := s.startHeartbeat(); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// Shutdown stops accepting new work and drains the machine pool:
// queued requests finish, later ones get 503 + Retry-After. Safe to
// call once; the HTTP listener should be shut down around it (see
// cmd/ipim-serve).
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	// With the draining flag up, tell the router before the pool stops:
	// the final "draining" beat pulls this worker out of the ring so new
	// keys rehash while queued work finishes.
	s.heartbeat.stopAndWait()
	// Cancel any in-flight background tuning first: it is the lowest
	// priority work and must never hold up the drain.
	if err := s.tuner.close(); err != nil {
		s.cfg.Logger.Printf("tune: store close: %v", err)
	}
	return s.pool.drain(ctx)
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// ServeHTTP wraps the routes with access logging and per-route/status
// metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	rec := obs.NewStatusRecorder(w)
	s.mux.ServeHTTP(rec, r)
	dur := time.Since(t0)
	s.metrics.observeRequest(metricsRoute(r.URL.Path), rec.Status, dur)
	s.cfg.Logger.Printf("method=%s path=%s status=%d bytes=%d dur=%s remote=%s",
		r.Method, r.URL.Path, rec.Status, rec.Bytes, dur.Round(time.Microsecond), r.RemoteAddr)
}

// metricsRoute maps a request path onto a bounded route label set
// (unknown paths collapse into one label so cardinality stays fixed).
func metricsRoute(path string) string {
	switch path {
	case "/healthz", "/readyz", "/metrics", "/v1/workloads", "/v1/process", "/v1/stream", "/v1/simb", "/v1/tune":
		return path
	}
	return "other"
}

// handleHealthz is pure liveness: it answers 200 as long as the
// process can serve HTTP at all, draining or not, so orchestrators
// don't kill a pod that is gracefully finishing its queue. Readiness
// (should this instance receive NEW traffic?) is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// verdict is the worker's health verdict: the state the heartbeat
// advertises and, for every state but "ready", the Retry-After value
// and body of the 503 that refuses traffic.
type verdict struct {
	state      string // "ready", "draining", "degraded" or "backlog"
	retryAfter int
	msg        string
}

// health decides the worker's verdict: draining once Shutdown begins,
// degraded while shedding load under uncorrected-fault pressure, and
// backlog while the checkpoint journal still holds jobs interrupted
// before the last restart — until they are replayed (re-submissions
// resume them) or the recovery grace expires, so a router doesn't pile
// new work onto a worker busy replaying.
func (s *Server) health() verdict {
	if s.isDraining() {
		return verdict{"draining", 1, "draining"}
	}
	if retryAfter, shedding := s.degrade.active(); shedding {
		return verdict{"degraded", retryAfter, "degraded: uncorrected-error rate above threshold"}
	}
	if n := s.recovery.backlog(); n > 0 {
		return verdict{"backlog", 1, fmt.Sprintf("recovering: %d journaled job(s) awaiting resume", n)}
	}
	return verdict{state: "ready"}
}

// refuse answers 503 with the verdict's Retry-After and message.
func (v verdict) refuse(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(v.retryAfter))
	http.Error(w, v.msg, http.StatusServiceUnavailable)
}

// handleReadyz is readiness: 503 in every state but ready — take the
// worker out of the balancer — and 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if v := s.health(); v.state != "ready" {
		v.refuse(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// workloadInfo is one entry of the /v1/workloads listing.
type workloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	MultiStage  bool   `json:"multi_stage"`
	Histogram   bool   `json:"histogram"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var wls []workloadInfo
	for _, wl := range ipim.Workloads() {
		wls = append(wls, workloadInfo{
			Name:        wl.Name,
			Description: wl.Description,
			MultiStage:  wl.MultiStage,
			Histogram:   wl.Build().Pipe.Histogram,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"workloads": wls,
		"configs":   ipim.OptionNames(),
	})
}

// runResult is what a pooled /v1/process run hands back to the handler.
type runResult struct {
	tally
	planes  []*ipim.Image // 1 (PGM) or 3 (PPM)
	bins    []int32       // histogram pipelines
	resumed bool          // a plane resumed from the checkpoint journal
}

func (s *Server) handleProcess(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseRun(w, r)
	if !ok {
		return
	}
	planes, ppm, err := decodePlanes(req.body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a, ok := s.fetch(w, &req, planes[0].W, planes[0].H)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), req.timeout)
	defer cancel()

	// Run on a pooled machine, retrying transient injected faults (and,
	// when the checkpoint journal is on, crashed workers — the retry
	// resumes from the last journaled barrier) with full-jitter backoff
	// under the request deadline.
	res := &runResult{}
	run := func() error {
		*res = runResult{}
		return s.pool.submit(ctx, s.tunedJob(&a, func(ctx context.Context, m *ipim.Machine) error {
			return s.runOn(ctx, m, &req, &a, planes, res)
		}))
	}
	retryable := func(err error) bool {
		if errors.Is(err, ipim.ErrTransientFault) {
			return true
		}
		// A worker panic is only worth retrying when the journal can
		// hand the retry the crashed run's progress.
		return s.journal != nil && errors.Is(err, errWorkerPanic)
	}
	err = run()
	retries := 0
	for retryable(err) && retries < s.cfg.MaxRetries {
		retries++
		s.metrics.retries.Inc()
		select {
		case <-time.After(s.backoff.backoff(s.retryBackoff, retries-1)):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		err = run()
	}
	if err != nil {
		failRun(w, err)
		return
	}
	s.record(&res.tally, req.run.Mode)

	// Encode the response body first so the transfer accounting and
	// Content-Length cover the real payload.
	var buf bytes.Buffer
	contentType := ""
	switch {
	case res.bins != nil:
		contentType = "application/json"
		err = json.NewEncoder(&buf).Encode(map[string]any{"workload": req.wl.Name, "bins": res.bins})
	case ppm:
		contentType = "image/x-portable-pixmap"
		err = ipim.WritePPM(&buf, res.planes[0], res.planes[1], res.planes[2])
	default:
		contentType = "image/x-portable-graymap"
		err = ipim.WritePGM(&buf, res.planes[0])
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	transferNS := s.meter.Record(int64(len(req.body)), int64(buf.Len()))

	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	a.setHeaders(h, &req)
	if req.run.Mode != ipim.FunctionalMode {
		// Functional runs carry no cycle clock, so the timing- and
		// energy-accounting headers would be zeros; omit them rather
		// than report numbers that mean nothing.
		h.Set("X-Ipim-Cycles", strconv.FormatInt(res.cycles, 10))
		h.Set("X-Ipim-Kernel-Ns", strconv.FormatInt(res.cycles, 10)) // 1 GHz: 1 cycle = 1 ns
		h.Set("X-Ipim-Energy-Pj", strconv.FormatFloat(res.energyJ*1e12, 'g', -1, 64))
	}
	h.Set("X-Ipim-Instructions", strconv.FormatInt(res.issued, 10))
	h.Set("X-Ipim-Transfer-Ns", strconv.FormatFloat(transferNS, 'f', 0, 64))
	if s.journal != nil {
		h.Set("X-Ipim-Resumed", strconv.FormatBool(res.resumed))
	}
	if s.cfg.Faults.Enabled() {
		h.Set("X-Ipim-Faults-Corrected", strconv.FormatInt(res.corrected, 10))
		h.Set("X-Ipim-Faults-Uncorrected", strconv.FormatInt(res.uncorrected, 10))
		h.Set("X-Ipim-Retries", strconv.Itoa(retries))
	}
	w.Write(buf.Bytes())
}

// decodePlanes decodes a /v1/process body: a binary PGM (one plane) or
// PPM (three planes).
func decodePlanes(body []byte) (planes []*ipim.Image, ppm bool, err error) {
	switch {
	case bytes.HasPrefix(body, []byte("P5")):
		im, err := ipim.ReadPGM(bytes.NewReader(body))
		if err != nil {
			return nil, false, err
		}
		return []*ipim.Image{im}, false, nil
	case bytes.HasPrefix(body, []byte("P6")):
		rp, gp, bp, err := ipim.ReadPPM(bytes.NewReader(body))
		if err != nil {
			return nil, false, err
		}
		return []*ipim.Image{rp, gp, bp}, true, nil
	}
	return nil, false, errors.New("body must be a binary PGM (P5) or PPM (P6) image")
}

// runOn executes every plane of a request on one pooled machine,
// accumulating the simulated accounting into res. ctx and the request's
// run options flow into the simulator: mid-run cancellation and
// cycle-budget aborts surface as ipim.ErrCancelled / ipim.ErrCycleBudget.
func (s *Server) runOn(ctx context.Context, m *ipim.Machine, req *runRequest, a *artifact, planes []*ipim.Image, res *runResult) error {
	if a.Plan.Pipe.Histogram {
		_, bins, stats, err := s.planeRun(ctx, m, req, a, planes[0], 0, res)
		if err != nil {
			return err
		}
		res.bins = bins
		res.add(&stats, &s.cfg.Machine)
		return nil
	}
	for i, p := range planes {
		out, _, stats, err := s.planeRun(ctx, m, req, a, p, i, res)
		if err != nil {
			return err
		}
		res.planes = append(res.planes, out)
		res.add(&stats, &s.cfg.Machine)
	}
	return nil
}

// planeRun executes one plane run (or the histogram pass), with
// crash-recovery journaling when the server has a checkpoint journal:
// if the journal holds this job's checkpoint the machine is restored
// and the interrupted run resumed from its last barrier — by the
// determinism contract, bit-identical to never having crashed — and a
// fresh run streams a checkpoint into the journal at every covered
// barrier. The journal entry is removed only when the run completes;
// every failure (panic, cancellation, budget abort, process death)
// leaves the last checkpoint for the next attempt. A fresh run also
// removes the entries the same request left under another schedule.
func (s *Server) planeRun(ctx context.Context, m *ipim.Machine, req *runRequest, a *artifact, img *ipim.Image, plane int, res *runResult) (*ipim.Image, []int32, ipim.Stats, error) {
	hist := a.Plan.Pipe.Histogram
	if s.journal == nil {
		if hist {
			bins, stats, err := ipim.RunHistogramContext(ctx, m, a.Artifact, img, req.run)
			return nil, bins, stats, err
		}
		out, stats, err := ipim.RunContext(ctx, m, a.Artifact, img, req.run)
		return out, nil, stats, err
	}
	id := jobID(req.wl.Name, req.optName, req.run.Mode.String(), req.run.MaxCycles, a.sched, plane, req.body)
	resumed := false
	if data, ok := s.journal.load(id); ok {
		switch err := m.Restore(data); {
		case err != nil:
			// Unusable entry — torn write the CRC caught, or a machine
			// reconfiguration since it was written. Discard, run fresh.
			s.cfg.Logger.Printf("checkpoint journal: discarding %s: %v", id, err)
			s.journalRemove(id)
		case m.HasResume():
			resumed = true
		default:
			// An idle checkpoint carries no interrupted run to continue.
			s.journalRemove(id)
		}
	}
	if !resumed {
		// What this request left under another schedule can never
		// resume: its artifact has been swapped out.
		for _, old := range s.journal.stale(id) {
			s.journalRemove(old)
		}
	}
	opts := req.run
	opts.CheckpointEvery = s.cfg.CheckpointEvery
	writes := 0
	opts.CheckpointSink = func(data []byte) error {
		if err := s.journal.write(id, data); err != nil {
			return err
		}
		s.metrics.ckptWrites.Inc()
		s.metrics.ckptBytes.Add(int64(len(data)))
		writes++
		if n := s.chaosCrashAfter; n > 0 && !resumed && writes == n {
			if _, crashed := s.chaosCrashed.LoadOrStore(id, true); !crashed {
				panic(fmt.Sprintf("chaos: injected crash after %d checkpoint(s) of job %s", n, id))
			}
		}
		return nil
	}
	var (
		out   *ipim.Image
		bins  []int32
		stats ipim.Stats
		err   error
	)
	switch {
	case resumed && hist:
		bins, stats, err = ipim.ResumeHistogram(ctx, m, a.Artifact, opts)
	case resumed:
		out, stats, err = ipim.ResumeRun(ctx, m, a.Artifact, opts)
	case hist:
		bins, stats, err = ipim.RunHistogramContext(ctx, m, a.Artifact, img, opts)
	default:
		out, stats, err = ipim.RunContext(ctx, m, a.Artifact, img, opts)
	}
	if err != nil {
		return nil, nil, stats, err
	}
	if resumed {
		res.resumed = true
		s.metrics.jobsResumed.Inc()
	}
	s.journalRemove(id)
	return out, bins, stats, nil
}

// journalRemove deletes a job's journal entry and, if the id was part
// of the boot-time backlog, ticks it off the readiness gate.
func (s *Server) journalRemove(id string) {
	s.journal.remove(id)
	s.recovery.done(id)
}

// handleSimb runs raw SIMB assembly (POST body) on a pooled machine:
// the program is assembled, finalized, loaded into every vault and run
// under the request's deadline and cycle budget, returning the
// simulated statistics as JSON. This is the escape hatch below the
// workload layer — and the reason the cancellation path matters: a
// hand-written program can loop forever, and the deadline/budget
// machinery is what guarantees the worker comes back.
func (s *Server) handleSimb(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseRun(w, r)
	if !ok {
		return
	}
	prog, err := assemble(req.body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), req.timeout)
	defer cancel()

	var stats ipim.Stats
	err = s.pool.submit(ctx, func(ctx context.Context, m *ipim.Machine) error {
		st, err := m.RunSameContext(ctx, prog, req.run)
		if err != nil {
			return err
		}
		stats = st
		return nil
	})
	if err != nil {
		failRun(w, err)
		return
	}
	var t tally
	t.add(&stats, &s.cfg.Machine)
	s.record(&t, req.run.Mode)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"cycles":    stats.Cycles,
		"issued":    stats.Issued,
		"ipc":       stats.IPC(),
		"energy_pj": t.energyJ * 1e12,
	})
}

// assemble assembles and finalizes a /v1/simb body.
func assemble(body []byte) (*ipim.Program, error) {
	prog, err := ipim.Assemble(string(body))
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	if err := prog.Finalize(); err != nil {
		return nil, fmt.Errorf("finalize: %w", err)
	}
	return prog, nil
}
