package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ipim"
	"ipim/internal/autotune"
)

// The background search strategy, and the bound of the tuning queue: a
// full queue drops the enqueue, to be retried by a later request.
const (
	tuneStrategy = "hill"
	tuneQueueCap = 16
)

// tuneJob asks the background tuner to find a better schedule for one
// artifact-cache key.
type tuneJob struct {
	key cacheKey
	wl  ipim.Workload
}

// tuner is the lazy artifact-upgrade engine: a bounded background
// queue of schedule searches over internal/autotune. Requests for an
// unknown key are served with the default schedule immediately;
// the tuner searches off the request path and, when a candidate beats
// the incumbent by the configured margin, recompiles and atomically
// swaps the cached artifact, so the NEXT request for that key runs the
// tuned schedule (X-Ipim-Schedule: tuned). Winners are recorded in a
// persistent store, which short-circuits the search after a restart.
//
// Scheduling discipline: one consumer goroutine, strictly lowest
// priority — it waits for the machine pool to go idle before starting
// a search (and the search runs on its own machines, never the
// pool's), so foreground latency is unaffected. Searches are
// single-flight per key for the server's lifetime and cancelled by
// Shutdown.
type tuner struct {
	cfg    *Config
	cache  *artifactCache
	pool   *pool
	store  *autotune.Store
	engine *autotune.Engine

	queue chan tuneJob

	mu   sync.Mutex
	seen map[cacheKey]bool // single-flight: keys ever enqueued

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	stats struct {
		sync.Mutex
		tuneSnapshot
	}
}

// tuneSnapshot is the tuner's state for /metrics and /v1/tune.
type tuneSnapshot struct {
	Queued          int64   `json:"queued"`    // jobs waiting or running now
	Completed       int64   `json:"completed"` // searches finished (improved + unimproved)
	Improved        int64   `json:"improved"`  // searches whose winner was swapped in
	Failed          int64   `json:"failed"`    // searches that errored
	Dropped         int64   `json:"dropped"`   // enqueues rejected by a full queue
	LastImprovement float64 `json:"last_improvement"`
}

// newTuner opens the results store and starts the consumer. Returns
// (nil, nil) when tuning is disabled (TuneWorkers == 0).
func newTuner(cfg *Config, cache *artifactCache, pool *pool) (*tuner, error) {
	if cfg.TuneWorkers <= 0 {
		return nil, nil
	}
	store, err := autotune.OpenStore(cfg.TuneDB)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &tuner{
		cfg:    cfg,
		cache:  cache,
		pool:   pool,
		store:  store,
		engine: &autotune.Engine{Workers: cfg.TuneWorkers, MaxCycles: cfg.MaxCycles},
		queue:  make(chan tuneJob, tuneQueueCap),
		seen:   map[cacheKey]bool{},
		ctx:    ctx,
		cancel: cancel,
	}
	t.wg.Add(1)
	go t.run()
	return t, nil
}

// maybeEnqueue submits a key for background tuning, at most once per
// server lifetime. A full queue drops the request (and forgets the
// key, so a later request retries). Histogram workloads are not
// tunable (no image output to verify) and are ignored.
func (t *tuner) maybeEnqueue(key cacheKey, wl ipim.Workload) {
	if t == nil || wl.Build().Pipe.Histogram {
		return
	}
	t.mu.Lock()
	if t.seen[key] {
		t.mu.Unlock()
		return
	}
	t.seen[key] = true
	t.mu.Unlock()
	select {
	case t.queue <- tuneJob{key: key, wl: wl}:
		t.stats.Lock()
		t.stats.Queued++
		t.stats.Unlock()
	default:
		t.mu.Lock()
		delete(t.seen, key)
		t.mu.Unlock()
		t.stats.Lock()
		t.stats.Dropped++
		t.stats.Unlock()
	}
}

// run is the consumer: one search at a time, each preceded by a wait
// for the machine pool to go idle (lowest priority vs foreground).
func (t *tuner) run() {
	defer t.wg.Done()
	for {
		select {
		case <-t.ctx.Done():
			return
		case job := <-t.queue:
			t.waitForIdlePool()
			if t.ctx.Err() != nil {
				return
			}
			err := t.tune(job)
			t.stats.Lock()
			t.stats.Queued--
			if err != nil {
				t.stats.Failed++
				t.cfg.Logger.Printf("tune: workload=%s image=%dx%d failed: %v",
					job.key.Workload, job.key.W, job.key.H, err)
			}
			t.stats.Unlock()
		}
	}
}

// waitForIdlePool blocks until no foreground job is queued or running
// (or the tuner is cancelled). The poll is coarse on purpose: the
// tuner's latency does not matter, the foreground's does.
func (t *tuner) waitForIdlePool() {
	for t.pool.queueDepth() > 0 {
		select {
		case <-t.ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// tune resolves one job: consult the store, search if the key is
// unknown, record the winner, and swap the cached artifact when the
// improvement clears the margin.
func (t *tuner) tune(job tuneJob) error {
	cfg := t.cfg.Machine
	storeKey := autotune.KeyFor(&cfg, job.key.Opts, job.wl.Build().Pipe, job.key.W, job.key.H)

	rec, warm := t.store.Get(storeKey)
	if !warm {
		p := autotune.PipelineProblem(cfg, func() *ipim.Pipeline { return job.wl.Build().Pipe },
			job.key.W, job.key.H)
		p.Opts = job.key.Opts
		p.Label = job.wl.Name
		strat, err := autotune.NewStrategy(tuneStrategy, autotune.DefaultSpace(), autotune.DefaultProbeSeed)
		if err != nil {
			return err
		}
		report, err := t.engine.Search(t.ctx, p, strat)
		if err != nil {
			return err
		}
		best := report.Best()
		rec = autotune.Record{
			Key:           storeKey,
			Label:         job.wl.Name,
			Strategy:      report.Strategy,
			Seed:          autotune.DefaultProbeSeed,
			Best:          best.Candidate,
			BestCycles:    best.Cycles,
			DefaultCycles: report.Default.Cycles,
			Evaluated:     report.Evaluated,
			UpdatedUnix:   time.Now().Unix(),
		}
		if err := t.store.Put(rec); err != nil {
			return err
		}
	}

	improvement := rec.Improvement()
	t.stats.Lock()
	t.stats.Completed++
	t.stats.LastImprovement = improvement
	t.stats.Unlock()
	if improvement < t.cfg.TuneMargin {
		t.cfg.Logger.Printf("tune: workload=%s image=%dx%d improvement %.3fx below margin %.3fx, keeping default",
			job.key.Workload, job.key.W, job.key.H, improvement, t.cfg.TuneMargin)
		return nil
	}

	// Recompile with the winning schedule and swap it into the cache.
	// The candidate's DRAM policies are timing-only and applied per-run
	// (see tunedJob), so the tuned artifact's pixel output is
	// bit-identical to the default's — the search verified as much
	// against the reference.
	cand := rec.Best
	pipe := autotune.Apply(job.wl.Build().Pipe, cand)
	art, err := ipim.Compile(&cfg, pipe, job.key.W, job.key.H, job.key.Opts)
	if err != nil {
		return fmt.Errorf("tuned recompile: %w", err)
	}
	t.cache.swap(job.key, art, &cand)
	t.stats.Lock()
	t.stats.Improved++
	t.stats.Unlock()
	t.cfg.Logger.Printf("tune: workload=%s image=%dx%d upgraded to %s (%.3fx)",
		job.key.Workload, job.key.W, job.key.H, cand, improvement)
	return nil
}

// snapshot returns the tuner counters for metrics and /v1/tune.
func (t *tuner) snapshot() tuneSnapshot {
	t.stats.Lock()
	defer t.stats.Unlock()
	return t.stats.tuneSnapshot
}

// close cancels any in-flight search, stops the consumer and closes
// the results store (compacting a grown journal). Idempotent via
// context cancellation semantics.
func (t *tuner) close() error {
	if t == nil {
		return nil
	}
	t.cancel()
	t.wg.Wait()
	return t.store.Close()
}

// handleTune is GET /v1/tune: the tuner state and every stored record.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	resp := map[string]any{"enabled": s.tuner != nil}
	if s.tuner != nil {
		resp["status"] = s.tuner.snapshot()
		resp["margin"] = s.cfg.TuneMargin
		resp["strategy"] = tuneStrategy
		resp["records"] = s.tuner.store.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
