package serve

// End-to-end cancellation, budget and watchdog tests: hostile SIMB
// programs hit the HTTP surface and every worker must come back.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ipim"
)

// simbInfinite never reaches its sync: the canonical hostile program a
// raw-assembly client can submit.
const simbInfinite = `
seti_crf c0, =loop
loop:
calc_crf iadd c1, c1, #1
jump c0
sync 1
`

// simbFinite is a short counted loop that terminates on its own.
const simbFinite = `
seti_crf c1, #32
seti_crf c0, =loop
loop:
calc_crf isub c1, c1, #1
cjump c1, c0
sync 1
`

func mustAssemble(t *testing.T, src string) *ipim.Program {
	t.Helper()
	p, err := ipim.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func postSimb(t *testing.T, s *Server, query, src string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	url := "/v1/simb"
	if query != "" {
		url += "?" + query
	}
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(src))
	s.ServeHTTP(rec, req)
	return rec
}

func metricsBody(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// TestSimbNeverTerminatingIsCancelled is the headline e2e contract: a
// never-terminating SIMB program POSTed with a 100ms deadline comes
// back as an error promptly, the (single) worker returns to service
// for the next request, and ipim_jobs_cancelled_total increments.
func TestSimbNeverTerminatingIsCancelled(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Workers = 1
		c.WatchdogInterval = 10 * time.Millisecond
	})

	t0 := time.Now()
	rec := postSimb(t, s, "timeout=100ms", simbInfinite)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// The worker must free itself via the cooperative interrupt — wait
	// a few watchdog intervals, then demand it serves a real request.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.idleWorkers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.pool.idleWorkers() != 1 {
		t.Fatal("worker never returned to service after cancellation")
	}
	rec = postSimb(t, s, "", simbFinite)
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up request: %d (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"cycles"`) {
		t.Errorf("follow-up response missing stats: %s", rec.Body.String())
	}

	body := metricsBody(t, s)
	if v := metricValue(t, body, "ipim_jobs_cancelled_total"); v < 1 {
		t.Errorf("ipim_jobs_cancelled_total = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "ipim_worker_busy_seconds"); v <= 0 {
		t.Errorf("ipim_worker_busy_seconds = %v, want > 0", v)
	}
}

// TestSimbCycleBudget504: a hostile program under a max_cycles budget
// fails 504 with the budget error and increments
// ipim_cycle_budget_exceeded_total; the worker serves the next request.
func TestSimbCycleBudget504(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1 })
	rec := postSimb(t, s, "max_cycles=2000", simbInfinite)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "budget") {
		t.Errorf("error body should name the budget: %s", rec.Body.String())
	}
	if rec = postSimb(t, s, "", simbFinite); rec.Code != http.StatusOK {
		t.Fatalf("follow-up request: %d (%s)", rec.Code, rec.Body.String())
	}
	if v := metricValue(t, metricsBody(t, s), "ipim_cycle_budget_exceeded_total"); v != 1 {
		t.Errorf("ipim_cycle_budget_exceeded_total = %v, want 1", v)
	}
}

// TestServerMaxCyclesCapsRequestBudget: the -max-cycles server cap
// clamps a client's max_cycles — asking for a huge budget on a server
// capped at 2000 cycles still aborts.
func TestServerMaxCyclesCapsRequestBudget(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1; c.MaxCycles = 2000 })
	rec := postSimb(t, s, "max_cycles=1000000000000", simbInfinite)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	// And the cap applies even with no client parameter at all.
	rec = postSimb(t, s, "", simbInfinite)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status without max_cycles = %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	// Bad values are rejected up front.
	for _, bad := range []string{"max_cycles=0", "max_cycles=-5", "max_cycles=nope"} {
		if rec = postSimb(t, s, bad, simbFinite); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, rec.Code)
		}
	}
}

// TestProcessMaxCyclesBudget: the budget also guards the workload path
// (/v1/process), where the program is compiler-generated but the
// budget still bounds simulated work per request.
func TestProcessMaxCyclesBudget(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1 })
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, processURL("", "Brighten", "max_cycles=10"),
		bytes.NewReader(pgmBody(t, 32, 16)))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	// Without the starvation budget the same request succeeds on the
	// same (post-abort) worker.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up process: %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestRunningJobDeadlineFreesWorker is the queued-vs-running asymmetry
// regression (pool-level): a job whose context expires while it is
// RUNNING — not just queued — must free its worker via the cooperative
// interrupt, and the abort must be counted.
func TestRunningJobDeadlineFreesWorker(t *testing.T) {
	p := newTestPool(t, 1, 4)
	prog := mustAssemble(t, simbInfinite)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := p.submit(ctx, func(ctx context.Context, m *ipim.Machine) error {
		_, err := m.RunSameContext(ctx, prog, ipim.RunOptions{})
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit = %v, want DeadlineExceeded", err)
	}
	// submit returned at the deadline; the worker unwinds on its own
	// shortly after (interrupt hook latency, far under a second).
	deadline := time.Now().Add(10 * time.Second)
	for p.idleWorkers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.idleWorkers() != 1 {
		t.Fatal("worker still busy after running job's context expired")
	}
	if p.cancelledCount() < 1 {
		t.Errorf("cancelledCount = %d, want >= 1", p.cancelledCount())
	}
	if err := p.submit(context.Background(), func(ctx context.Context, m *ipim.Machine) error { return nil }); err != nil {
		t.Fatalf("pool dead after mid-run cancellation: %v", err)
	}
}

// TestPanicMidSimulationResetsMachine is the panic-isolation
// regression: a worker that panics AFTER real simulated work (clock
// advanced, DRAM warm) is Reset by the recovery path, so the same
// worker's next run is bit-identical to a factory-fresh machine — the
// strongest observable proof the reset actually rewound timing state.
func TestPanicMidSimulationResetsMachine(t *testing.T) {
	p := newTestPool(t, 1, 4)
	finite := mustAssemble(t, simbFinite)

	err := p.submit(context.Background(), func(ctx context.Context, m *ipim.Machine) error {
		if _, err := m.RunSame(finite); err != nil {
			return err
		}
		panic("mid-simulation failure")
	})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("submit = %v, want recovered panic error", err)
	}
	if p.panicCount() != 1 {
		t.Fatalf("panicCount = %d, want 1", p.panicCount())
	}

	var got ipim.Stats
	err = p.submit(context.Background(), func(ctx context.Context, m *ipim.Machine) error {
		st, err := m.RunSame(finite)
		got = st
		return err
	})
	if err != nil {
		t.Fatalf("same worker after panic: %v", err)
	}
	fresh, err := ipim.NewMachine(ipim.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetParallelism(1)
	want, err := fresh.RunSame(finite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-panic run differs from a fresh machine:\nfresh:      %+v\npost-panic: %+v", want, got)
	}
}

// TestCancellationSoak hammers the server with the adversarial mix —
// deadline cancellations, budget aborts and panics, serial and
// parallel — and then demands every worker back in service with the
// determinism contract intact for completed runs.
func TestCancellationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const workers = 2
	s := testServer(t, func(c *Config) {
		c.Workers = workers
		c.QueueCap = 16
		c.WatchdogInterval = 10 * time.Millisecond
	})

	hostile := []func(i int){
		func(i int) { postSimb(t, s, "timeout=15ms", simbInfinite) },
		func(i int) { postSimb(t, s, "max_cycles=1500", simbInfinite) },
		func(i int) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
				processURL("", "Brighten", "max_cycles=5"), bytes.NewReader(pgmBody(t, 32, 16))))
		},
		func(i int) {
			s.pool.submit(context.Background(), func(ctx context.Context, m *ipim.Machine) error {
				panic(fmt.Sprintf("soak panic %d", i))
			})
		},
	}
	// Serial pass.
	for i := 0; i < 12; i++ {
		hostile[i%len(hostile)](i)
	}
	// Parallel pass: hostile requests race each other for the workers.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hostile[i%len(hostile)](i)
		}(i)
	}
	wg.Wait()

	// Every worker must return to service.
	deadline := time.Now().Add(30 * time.Second)
	for s.pool.idleWorkers() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if idle := s.pool.idleWorkers(); idle != workers {
		t.Fatalf("only %d/%d workers returned to service after the soak", idle, workers)
	}

	// Completed runs still obey the determinism contract. Every soak
	// job aborted (cancel, budget or panic), so every machine was Reset
	// — the first post-soak run must be bit-identical to the same
	// request on a factory-fresh server. (Later runs hit warm machines,
	// whose clocks legitimately persist; only aborts rewind them.)
	fresh := testServer(t, func(c *Config) { c.Workers = 1 })
	want := httptest.NewRecorder()
	fresh.ServeHTTP(want, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if want.Code != http.StatusOK {
		t.Fatalf("fresh reference request: %d (%s)", want.Code, want.Body.String())
	}
	for i := 0; i < workers+1; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
			bytes.NewReader(pgmBody(t, 32, 16))))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-soak request %d: %d (%s)", i, rec.Code, rec.Body.String())
		}
		if i == 0 {
			if got := rec.Header().Get("X-Ipim-Cycles"); got != want.Header().Get("X-Ipim-Cycles") {
				t.Errorf("post-soak cold run reported %s cycles, fresh server %s — Reset lost determinism",
					got, want.Header().Get("X-Ipim-Cycles"))
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				t.Error("post-soak output differs from the fresh-server output")
			}
		}
	}
}
