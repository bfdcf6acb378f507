package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"ipim"
)

// Errors the pool reports to the HTTP layer (mapped to 429/503 there).
var (
	// errQueueFull means the bounded dispatch queue rejected the job:
	// the client should back off and retry (HTTP 429).
	errQueueFull = errors.New("serve: dispatch queue full")
	// errDraining means the pool no longer accepts work because the
	// process is shutting down (HTTP 503).
	errDraining = errors.New("serve: pool draining")
	// errWorkerPanic marks a job that died in a recovered worker panic.
	// With a checkpoint journal the handler treats it like a transient
	// fault and re-enqueues the job, which resumes from the last
	// journaled barrier instead of restarting.
	errWorkerPanic = errors.New("serve: worker recovered from panic")
)

// jobFunc is one unit of simulator work, run on a pooled machine.
type jobFunc func(ctx context.Context, m *ipim.Machine) error

// job is a queued jobFunc.
type job struct {
	ctx  context.Context
	fn   jobFunc
	done chan error // buffered; the worker never blocks on it
}

// workerState is one worker's liveness record, written by the worker
// and sampled by the watchdog and the metrics renderer.
type workerState struct {
	// busySince is the wall-clock nanosecond the worker picked up its
	// current job, or 0 when idle.
	busySince atomic.Int64
}

// pool is a fixed set of ipim.Machine workers fed by a bounded queue.
// Each worker goroutine owns exactly one Machine, which upholds the
// machine concurrency contract (a Machine is single-run-at-a-time;
// distinct Machines run concurrently — see ipim.NewMachine). The
// bounded queue gives backpressure: submit never blocks the caller on
// a full queue, it fails fast with errQueueFull.
type pool struct {
	queue chan *job

	// mu serializes submits against close(queue): senders hold the
	// read side, drain takes the write side before closing.
	mu     sync.RWMutex
	closed bool

	workers int
	state   []workerState // indexed by worker id
	wg      sync.WaitGroup

	depth          atomic.Int64 // jobs queued or running
	panics         atomic.Int64 // recovered worker panics
	cancelled      atomic.Int64 // jobs aborted by context expiry
	budgetExceeded atomic.Int64 // jobs aborted by the cycle budget
	busyNS         atomic.Int64 // cumulative busy time of finished jobs

	// Simulator-internal effect of the run-level timing memo and of
	// idle-cycle fast-forward, summed over the jobs each machine ran.
	memoHits, memoMisses, ffCycles atomic.Int64

	// Hang watchdog (see watchdog).
	interval   time.Duration
	stuckAfter time.Duration
	logger     *log.Logger
	stopWatch  chan struct{}
}

// newPool builds the machines and starts the workers plus the
// watchdog. parallelism is each machine's per-phase simulation worker
// bound (0 = GOMAXPROCS, 1 = serial); results are identical either
// way, the knob only trades single-request latency against
// cross-request throughput when several pooled machines compete for
// cores. watchdog is the stuck-worker scan period; logger receives its
// reports.
func newPool(cfg ipim.Config, workers, queueCap, parallelism int, plan *ipim.FaultPlan, watchdog time.Duration, logger *log.Logger) (*pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("serve: pool needs at least one worker, got %d", workers)
	}
	if queueCap < 0 {
		queueCap = 0
	}
	p := &pool{
		queue:     make(chan *job, queueCap),
		workers:   workers,
		state:     make([]workerState, workers),
		interval:  watchdog,
		logger:    logger,
		stopWatch: make(chan struct{}),
	}
	// A worker is "stuck" once it has been busy for many watchdog
	// periods: long enough that every sane request deadline has passed,
	// short enough that a wedged simulation is reported while the
	// operator can still correlate it with the offending request.
	p.stuckAfter = 20 * watchdog
	for i := 0; i < workers; i++ {
		m, err := ipim.NewMachine(cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: build machine %d: %w", i, err)
		}
		m.SetParallelism(parallelism)
		m.SetFaultPlan(plan)
		p.wg.Add(1)
		go p.worker(i, m)
	}
	go p.watchdog()
	return p, nil
}

// submit enqueues fn and waits for its result or the context.
//
// Contract: fn receives the job's context and MUST propagate it into
// the simulator (ipim.RunContext and friends). That closes the
// queued-vs-running asymmetry: a context that expires while the job is
// queued makes the worker skip it entirely, and a context that expires
// while the job is RUNNING interrupts the simulation cooperatively —
// the worker is reclaimed within the simulator's interrupt interval,
// not after the doomed run completes. Either way submit itself returns
// as soon as the context expires; the machine is never occupied by a
// request nobody is waiting for beyond that interrupt latency. If the
// queue is full it fails immediately with errQueueFull.
func (p *pool) submit(ctx context.Context, fn jobFunc) error {
	j, err := p.enqueue(ctx, fn)
	if err != nil {
		return err
	}
	select {
	case err := <-j.done:
		return err
	case <-ctx.Done():
		// The worker observes the expired context: a queued job is
		// dropped without running, a running one is interrupted by the
		// simulator's cancellation hooks and the worker returns to
		// service on its own.
		return ctx.Err()
	}
}

// submitWait is submit for jobs whose fn writes to resources the
// caller owns — e.g. an HTTP response being streamed frame by frame.
// It never returns while fn may still be running: context expiry still
// interrupts the run cooperatively through fn's ctx (and a context
// that expires while the job is queued makes the worker skip it), but
// submitWait waits for the worker to hand the job back instead of
// abandoning it, so the caller can safely reclaim whatever fn was
// writing to.
func (p *pool) submitWait(ctx context.Context, fn jobFunc) error {
	j, err := p.enqueue(ctx, fn)
	if err != nil {
		return err
	}
	return <-j.done
}

// enqueue queues fn without blocking: errDraining once drain has begun,
// errQueueFull when the queue has no free slot.
func (p *pool) enqueue(ctx context.Context, fn jobFunc) (*job, error) {
	j := &job{ctx: ctx, fn: fn, done: make(chan error, 1)}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, errDraining
	}
	select {
	case p.queue <- j:
		p.depth.Add(1)
		return j, nil
	default:
		return nil, errQueueFull
	}
}

// worker owns one machine for the life of the pool and drains the
// queue until drain closes it.
func (p *pool) worker(id int, m *ipim.Machine) {
	defer p.wg.Done()
	st := &p.state[id]
	for j := range p.queue {
		start := time.Now()
		st.busySince.Store(start.UnixNano())
		// A machine is not safe to read mid-run, so its tallies are read
		// here, around the job, on the goroutine that owns it.
		hits0, misses0 := m.TimingMemoStats()
		ff0 := m.FastForwardedCycles()
		err := p.runJob(m, j)
		hits, misses := m.TimingMemoStats()
		p.memoHits.Add(hits - hits0)
		p.memoMisses.Add(misses - misses0)
		// Restoring a journal checkpoint rewinds the machine's
		// fast-forward tally; count only what the job moved it forward.
		if ff := m.FastForwardedCycles() - ff0; ff > 0 {
			p.ffCycles.Add(ff)
		}
		st.busySince.Store(0)
		p.busyNS.Add(time.Since(start).Nanoseconds())
		// Leave the depth before waking the submitter, so a caller that
		// saw its job finish never reads it as still queued.
		p.depth.Add(-1)
		j.done <- err
	}
}

// runJob executes one job with panic isolation: a panicking workload
// is converted into an error for that request only, the machine is
// Reset (a panic can leave it mid-run), and the worker stays in
// service. Cancellation and budget aborts are tallied here so the
// watchdog metrics see every abort regardless of which handler
// submitted the job.
func (p *pool) runJob(m *ipim.Machine, j *job) (err error) {
	if err := j.ctx.Err(); err != nil {
		p.cancelled.Add(1)
		return err // expired while queued: don't occupy the machine
	}
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			m.Reset()
			err = fmt.Errorf("%w: %v", errWorkerPanic, r)
			return
		}
		switch {
		case err == nil:
		case errors.Is(err, ipim.ErrCycleBudget):
			p.budgetExceeded.Add(1)
		case errors.Is(err, ipim.ErrCancelled), errors.Is(err, context.Canceled),
			errors.Is(err, context.DeadlineExceeded):
			p.cancelled.Add(1)
		}
	}()
	return j.fn(j.ctx, m)
}

// watchdog periodically scans the workers and reports any that have
// been busy on one job longer than stuckAfter. With cooperative
// cancellation threaded through every run this should never fire; if
// it does, something is wedged below the interrupt hooks (or a job was
// submitted with a non-expiring context) and the log line is the
// operator's signal.
func (p *pool) watchdog() {
	if p.interval <= 0 {
		return
	}
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stopWatch:
			return
		case now := <-tick.C:
			for i := range p.state {
				since := p.state[i].busySince.Load()
				if since == 0 {
					continue
				}
				if busy := now.Sub(time.Unix(0, since)); busy > p.stuckAfter {
					p.logger.Printf("watchdog: worker=%d busy=%s exceeds stuck threshold %s",
						i, busy.Round(time.Millisecond), p.stuckAfter)
				}
			}
		}
	}
}

// queueDepth returns the number of jobs queued or running.
func (p *pool) queueDepth() int64 { return p.depth.Load() }

// panicCount returns the number of recovered worker panics.
func (p *pool) panicCount() int64 { return p.panics.Load() }

// cancelledCount returns the number of jobs aborted by context expiry
// (while queued or mid-run).
func (p *pool) cancelledCount() int64 { return p.cancelled.Load() }

// busySeconds returns the cumulative wall-clock time workers have
// spent running jobs, including time on jobs still in flight.
func (p *pool) busySeconds() float64 {
	ns := p.busyNS.Load()
	now := time.Now().UnixNano()
	for i := range p.state {
		if since := p.state[i].busySince.Load(); since != 0 && now > since {
			ns += now - since
		}
	}
	return float64(ns) / 1e9
}

// idleWorkers returns how many workers are not running a job right now
// (readiness signal: 0 means every machine is occupied).
func (p *pool) idleWorkers() int {
	idle := 0
	for i := range p.state {
		if p.state[i].busySince.Load() == 0 {
			idle++
		}
	}
	return idle
}

// drain stops accepting work, lets queued jobs finish, stops the
// watchdog, and waits for every worker to exit or the context to
// expire. It is idempotent.
func (p *pool) drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
		close(p.stopWatch)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", ctx.Err())
	}
}
