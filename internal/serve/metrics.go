package serve

import (
	"time"

	"ipim/internal/obs"
)

// metrics is the daemon's exposition: the series the server updates
// itself, registered in render order between the families it samples
// from the pool, cache, tuner, journal and host meter at render time.
type metrics struct {
	reg *obs.Registry

	// Per-route request counts and latency (seconds). Labeling by route
	// keeps probe scrapes (/metrics, /healthz) from skewing the workload
	// latency quantiles of /v1/process.
	requests *obs.CounterVec
	latency  *obs.HistogramVec

	// Fault-injection accounting (zero without a fault plan).
	faultsInjected, faultsCorrected, faultsUncorrected, retries *obs.Counter

	// Crash-recovery accounting; nil without a checkpoint journal.
	jobsResumed, ckptWrites, ckptBytes *obs.Counter

	streams, streamFrames *obs.Counter

	simCycles   *obs.Counter
	simEnergyPJ *obs.FloatCounter
}

// latencyBuckets spans sub-millisecond cache hits to multi-second
// full-machine simulations.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30}

// compileBuckets spans a small single-stage compile (a few ms) to a
// large multi-stage one.
var compileBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}

// newMetrics registers the exposition of a server whose pool, cache,
// meter, degrade state and optional tuner and journal already exist.
func newMetrics(s *Server) *metrics {
	start := time.Now()
	reg := &obs.Registry{}
	mt := &metrics{reg: reg}
	mt.requests = reg.CounterVec("ipim_requests_total", "HTTP requests served, by route and status.", "route", "status")
	mt.latency = reg.HistogramVec("ipim_request_seconds", "End-to-end request latency, by route.", latencyBuckets, "route")

	p := s.pool
	reg.Func(obs.TypeGauge, "ipim_queue_depth", "Jobs queued or running in the machine pool.", p.queueDepth)
	reg.Func(obs.TypeCounter, "ipim_worker_panics_total", "Recovered worker panics.", p.panicCount)
	reg.Func(obs.TypeCounter, "ipim_jobs_cancelled_total", "Pooled jobs aborted by context expiry (queued or mid-run).", p.cancelledCount)
	reg.Func(obs.TypeCounter, "ipim_cycle_budget_exceeded_total", "Pooled jobs aborted by the execution budget.", p.budgetExceededCount)
	reg.FloatFunc(obs.TypeCounter, "ipim_worker_busy_seconds", "Cumulative wall-clock time workers spent running jobs.", p.busySeconds)

	c := s.cache
	reg.Func(obs.TypeGauge, "ipim_artifact_cache_entries", "Compiled artifacts resident in the cache.", func() int64 { return c.stats().Entries })
	reg.Func(obs.TypeCounter, "ipim_artifact_cache_hits_total", "Requests served from the artifact cache.", func() int64 { return c.stats().Hits })
	reg.Func(obs.TypeCounter, "ipim_artifact_cache_misses_total", "Requests that initiated a compile.", func() int64 { return c.stats().Misses })
	reg.Func(obs.TypeCounter, "ipim_artifact_cache_evictions_total", "LRU evictions.", func() int64 { return c.stats().Evictions })
	reg.Func(obs.TypeCounter, "ipim_artifact_cache_swaps_total", "Artifacts upgraded in place by the background tuner.", func() int64 { return c.stats().Swaps })
	c.compileSeconds = reg.Histogram("ipim_compile_seconds", "Wall-clock compile time of artifact cache misses, failed compiles included.", compileBuckets)

	if t := s.tuner; t != nil {
		reg.Func(obs.TypeGauge, "ipim_tune_jobs_queued", "Background tuning jobs waiting or running.", func() int64 { return t.snapshot().Queued })
		reg.Samples(obs.TypeCounter, "ipim_tune_jobs_total", "Background tuning jobs, by outcome.", "outcome", func() []obs.Sample {
			ts := t.snapshot()
			return []obs.Sample{
				{Label: "completed", Value: ts.Completed},
				{Label: "improved", Value: ts.Improved},
				{Label: "failed", Value: ts.Failed},
				{Label: "dropped", Value: ts.Dropped},
			}
		})
		reg.FloatFunc(obs.TypeGauge, "ipim_tune_improvement_ratio", "Default-vs-tuned cycle ratio of the last completed search.", func() float64 { return t.snapshot().LastImprovement })
	}

	mt.faultsInjected = reg.Counter("ipim_faults_injected_total", "Faults injected into simulated runs (DRAM flip events + link faults).")
	mt.faultsCorrected = reg.Counter("ipim_faults_corrected_total", "Injected DRAM read errors corrected by the ECC model.")
	mt.faultsUncorrected = reg.Counter("ipim_faults_uncorrected_total", "Injected DRAM read errors detected but not corrected.")
	mt.retries = reg.Counter("ipim_request_retries_total", "Pooled runs retried after a transient injected fault.")
	if j := s.journal; j != nil {
		mt.jobsResumed = reg.Counter("ipim_jobs_resumed_total", "Plane runs resumed from the checkpoint journal after a crash.")
		mt.ckptWrites = reg.Counter("ipim_checkpoint_writes_total", "Checkpoints written to the crash-recovery journal.")
		mt.ckptBytes = reg.Counter("ipim_checkpoint_bytes", "Total bytes written to the crash-recovery journal.")
		reg.Func(obs.TypeGauge, "ipim_checkpoint_journal_pending", "Journal entries awaiting a resuming request.", func() int64 { return int64(j.pending()) })
		reg.Func(obs.TypeGauge, "ipim_recovery_backlog", "Boot-time journal entries still awaiting resume (holds /readyz at 503 until drained or the grace expires).",
			func() int64 { return int64(s.recovery.backlog()) })
	}
	reg.Func(obs.TypeGauge, "ipim_degraded", "Degraded mode: shedding load due to uncorrected-fault pressure.", func() int64 {
		if _, shedding := s.degrade.active(); shedding {
			return 1
		}
		return 0
	})

	mt.streams = reg.Counter("ipim_streams_total", "Multi-frame streams completed on /v1/stream.")
	mt.streamFrames = reg.Counter("ipim_stream_frames_total", "Output frames delivered on /v1/stream.")
	mt.simCycles = reg.Counter("ipim_simulated_cycles_total", "Accelerator cycles simulated for served requests.")
	mt.simEnergyPJ = reg.FloatCounter("ipim_simulated_energy_picojoules_total", "Simulated accelerator energy for served requests.")
	reg.Func(obs.TypeCounter, "ipim_sim_memo_hits_total", "Cycle-mode vault phases timed by replaying a memoized block.", p.memoHits.Load)
	reg.Func(obs.TypeCounter, "ipim_sim_memo_misses_total", "Cycle-mode vault phases simulated in full and recorded by the memoizer.", p.memoMisses.Load)
	reg.Func(obs.TypeCounter, "ipim_sim_fastforwarded_cycles_total", "Idle simulated cycles skipped by fast-forward instead of stepped.", p.ffCycles.Load)

	m := s.meter
	reg.Func(obs.TypeCounter, "ipim_host_offloads_total", "Requests offloaded over the modeled host bus.", func() int64 { return m.Snapshot().Requests })
	reg.Samples(obs.TypeCounter, "ipim_host_bytes_total", "Payload bytes over the modeled host bus, by direction.", "direction", func() []obs.Sample {
		ms := m.Snapshot()
		return []obs.Sample{{Label: "in", Value: ms.BytesIn}, {Label: "out", Value: ms.BytesOut}}
	})
	reg.Func(obs.TypeCounter, "ipim_host_transfer_nanoseconds_total", "Simulated host bus time.", func() int64 { return m.Snapshot().TransferNS })

	reg.FloatFunc(obs.TypeGauge, "ipim_process_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(start).Seconds() })
	return mt
}

// observeRequest records one finished HTTP request.
func (mt *metrics) observeRequest(route string, status int, dur time.Duration) {
	mt.requests.With(route, obs.StatusLabel(status)).Inc()
	mt.latency.With(route).Observe(dur.Seconds())
}

// observeRun records one simulated accelerator run, including its
// injected-fault tallies.
func (mt *metrics) observeRun(cycles int64, energyJ float64, injected, corrected, uncorrected int64) {
	mt.simCycles.Add(cycles)
	mt.simEnergyPJ.Add(energyJ * 1e12)
	mt.faultsInjected.Add(injected)
	mt.faultsCorrected.Add(corrected)
	mt.faultsUncorrected.Add(uncorrected)
}
