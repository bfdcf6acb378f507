package serve

// Crash-recovery contract: with a checkpoint journal, a request whose
// worker dies mid-run (panic injected by the chaos knob, or a whole
// pool teardown between attempts) is re-enqueued and resumes from the
// last journaled barrier — and by the determinism contract the
// response is byte-identical to a server nothing ever happened to.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ipim"
	"ipim/internal/autotune"
)

// chaosJob is one soak request: a workload over a distinct synthetic
// image, so every job owns a distinct journal entry.
type chaosJob struct {
	wl   string
	seed uint64
}

func chaosBody(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ipim.WritePGM(&buf, ipim.Synth(32, 16, seed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postJob runs one job and returns status, the X-Ipim-Resumed header
// and the response body.
func postJob(t *testing.T, base string, j chaosJob, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(processURL(base, j.wl, ""), "image/x-portable-graymap", bytes.NewReader(body))
	if err != nil {
		t.Errorf("%s/%d: %v", j.wl, j.seed, err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Ipim-Resumed"), out
}

// scrapeMetric fetches /metrics and extracts one un-labeled series.
func scrapeMetric(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	return int64(metricValue(t, string(text), name))
}

// TestChaosCrashRecoverySoak is the chaos soak: every fresh journaled
// run panics on its worker right after its first checkpoint write, the
// handler re-enqueues it, and the resumed response must be
// byte-identical to an undisturbed server's — across single-phase
// (Brighten, GaussianBlur) and multi-barrier (Histogram) pipelines,
// concurrently, with the journal drained to empty at the end.
func TestChaosCrashRecoverySoak(t *testing.T) {
	clean := testServer(t, nil)
	cleanTS := httptest.NewServer(clean)
	defer cleanTS.Close()

	chaotic := testServer(t, func(c *Config) {
		c.CheckpointDir = t.TempDir()
		c.MaxRetries = 3
	})
	chaotic.chaosCrashAfter, chaotic.retryBackoff, chaotic.backoff = 1, time.Millisecond, newJitter(42)
	chaosTS := httptest.NewServer(chaotic)
	defer chaosTS.Close()

	var jobs []chaosJob
	for _, wl := range []string{"Brighten", "GaussianBlur", "Histogram"} {
		for seed := uint64(1); seed <= 3; seed++ {
			jobs = append(jobs, chaosJob{wl: wl, seed: seed})
		}
	}

	// Undisturbed baseline, sequentially.
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		status, _, body := postJob(t, cleanTS.URL, j, chaosBody(t, j.seed))
		if status != http.StatusOK {
			t.Fatalf("baseline %s/%d: status %d: %s", j.wl, j.seed, status, body)
		}
		want[i] = body
	}

	// The same jobs against the crashing server, concurrently.
	type reply struct {
		status  int
		resumed string
		body    []byte
	}
	replies := make([]reply, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j chaosJob) {
			defer wg.Done()
			status, resumed, body := postJob(t, chaosTS.URL, j, chaosBody(t, j.seed))
			replies[i] = reply{status, resumed, body}
		}(i, j)
	}
	wg.Wait()

	for i, j := range jobs {
		r := replies[i]
		if r.status != http.StatusOK {
			t.Fatalf("%s/%d: status %d: %s", j.wl, j.seed, r.status, r.body)
		}
		if r.resumed != "true" {
			t.Errorf("%s/%d: X-Ipim-Resumed = %q, want true (chaos crash should force a resume)", j.wl, j.seed, r.resumed)
		}
		if !bytes.Equal(r.body, want[i]) {
			t.Errorf("%s/%d: resumed response differs from the undisturbed run", j.wl, j.seed)
		}
	}
	if got := scrapeMetric(t, chaosTS.URL, "ipim_jobs_resumed_total"); got < int64(len(jobs)) {
		t.Errorf("ipim_jobs_resumed_total = %d, want >= %d", got, len(jobs))
	}
	if got := scrapeMetric(t, chaosTS.URL, "ipim_checkpoint_journal_pending"); got != 0 {
		t.Errorf("ipim_checkpoint_journal_pending = %d after all jobs completed, want 0", got)
	}
	if got := scrapeMetric(t, chaosTS.URL, "ipim_checkpoint_bytes"); got <= 0 {
		t.Errorf("ipim_checkpoint_bytes = %d, want > 0", got)
	}
}

// TestDrainRestartResumesJournal is the pool-teardown leg: a job
// crashes with retries disabled so its journal entry survives, the
// whole server drains away (the SIGTERM path), and a new server over
// the same journal directory resumes the job on re-submission —
// byte-identical to a run that never died.
func TestDrainRestartResumesJournal(t *testing.T) {
	dir := t.TempDir()
	job := chaosJob{wl: "Histogram", seed: 5}
	body := chaosBody(t, job.seed)

	clean := testServer(t, nil)
	cleanTS := httptest.NewServer(clean)
	wantStatus, _, want := postJob(t, cleanTS.URL, job, body)
	cleanTS.Close()
	if wantStatus != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", wantStatus, want)
	}

	// Server A: crash after the second checkpoint, no retries — the
	// request fails, the journal keeps the mid-run state, and the pool
	// is torn down.
	a := testServer(t, func(c *Config) {
		c.CheckpointDir = dir
		c.MaxRetries = -1
	})
	a.chaosCrashAfter = 2
	aTS := httptest.NewServer(a)
	status, _, out := postJob(t, aTS.URL, job, body)
	if status != http.StatusInternalServerError {
		t.Fatalf("crashing server: status %d, want 500: %s", status, out)
	}
	if got := scrapeMetric(t, aTS.URL, "ipim_checkpoint_journal_pending"); got != 1 {
		t.Fatalf("journal pending after crash = %d, want 1", got)
	}
	aTS.Close() // testServer's cleanup drains the pool at test end; the
	// journal directory outlives it by construction.

	// Server B over the same journal: the re-submitted request resumes.
	b := testServer(t, func(c *Config) {
		c.CheckpointDir = dir
	})
	bTS := httptest.NewServer(b)
	defer bTS.Close()
	status, resumed, out := postJob(t, bTS.URL, job, body)
	if status != http.StatusOK {
		t.Fatalf("restarted server: status %d: %s", status, out)
	}
	if resumed != "true" {
		t.Errorf("restarted server: X-Ipim-Resumed = %q, want true", resumed)
	}
	if !bytes.Equal(out, want) {
		t.Error("resumed response differs from the undisturbed run")
	}
	if got := scrapeMetric(t, bTS.URL, "ipim_checkpoint_journal_pending"); got != 0 {
		t.Errorf("journal pending after resume = %d, want 0", got)
	}
}

// TestReadyzDuringRecoveryBacklog: a worker that boots over a journal
// with interrupted jobs must answer /readyz with 503 until the backlog
// is replayed — so a router never routes fresh work onto a worker busy
// resuming — while journal entries written for in-flight runs must NOT
// flip readiness, and the grace deadline releases a backlog nobody
// re-submits.
func TestReadyzDuringRecoveryBacklog(t *testing.T) {
	dir := t.TempDir()
	job := chaosJob{wl: "Brighten", seed: 11}
	body := chaosBody(t, job.seed)
	id := jobID("Brighten", "opt", ipim.CycleMode.String(), 0, nil, 0, body)
	stale := jobID("Brighten", "opt", ipim.CycleMode.String(), 0, &autotune.Candidate{TileW: 8, TileH: 4}, 0, body)

	// Seed the journal the way a crashed process leaves it: the entry a
	// client will re-submit, the same request's entry under a schedule
	// the server no longer serves, plus an orphan nobody ever will.
	j, err := newCkptJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{id, stale, "deadbeefdeadbeef"} {
		if err := j.write(e, []byte("boot-time entry")); err != nil {
			t.Fatal(err)
		}
	}

	s := testServer(t, func(c *Config) {
		c.CheckpointDir = dir
		c.RecoveryGrace = time.Minute
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	readyz := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with boot backlog = %d, want 503", got)
	}
	if got := scrapeMetric(t, ts.URL, "ipim_recovery_backlog"); got != 3 {
		t.Fatalf("ipim_recovery_backlog = %d, want 3", got)
	}

	// Replaying the job clears its backlog slot (here the planted entry is
	// garbage, so the run discards it and starts fresh — removal is
	// removal either way) and the slot of its entry under the other
	// schedule, which the fresh run removes. A fresh journaled request
	// with a DIFFERENT id writes and removes its own entry mid-flight;
	// that must not touch the backlog.
	if status, _, out := postJob(t, ts.URL, job, body); status != http.StatusOK {
		t.Fatalf("replayed job: status %d: %s", status, out)
	}
	other := chaosJob{wl: "Brighten", seed: 12}
	if status, _, out := postJob(t, ts.URL, other, chaosBody(t, other.seed)); status != http.StatusOK {
		t.Fatalf("fresh job: status %d: %s", status, out)
	}
	if got := scrapeMetric(t, ts.URL, "ipim_recovery_backlog"); got != 1 {
		t.Fatalf("ipim_recovery_backlog after replay = %d, want 1 (only the orphan)", got)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with the orphan outstanding = %d, want 503", got)
	}

	// Only the grace deadline releases the orphan.
	s.recovery.mu.Lock()
	s.recovery.deadline = time.Now().Add(-time.Second)
	s.recovery.mu.Unlock()
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz after grace expiry = %d, want 200", got)
	}
	if got := scrapeMetric(t, ts.URL, "ipim_recovery_backlog"); got != 0 {
		t.Fatalf("ipim_recovery_backlog after grace expiry = %d, want 0", got)
	}
}

// TestJitterBackoffSeededAndBounded pins the retry backoff contract:
// same seed, same schedule; every wait stays within the exponential
// envelope and the global cap.
func TestJitterBackoffSeededAndBounded(t *testing.T) {
	a, b := newJitter(99), newJitter(99)
	base := 25 * time.Millisecond
	for attempt := 0; attempt < 16; attempt++ {
		da, db := a.backoff(base, attempt), b.backoff(base, attempt)
		if da != db {
			t.Fatalf("attempt %d: seeded sources diverged (%s vs %s)", attempt, da, db)
		}
		ceil := base << uint(attempt)
		if ceil <= 0 || ceil > backoffCap {
			ceil = backoffCap
		}
		if da < 0 || da > ceil {
			t.Fatalf("attempt %d: backoff %s outside [0, %s]", attempt, da, ceil)
		}
	}
}

// TestJournalDiscardsCorruptEntry: a torn/garbage journal entry (a
// crash mid-rename, a partial disk) must not poison the job — the
// server logs it away and runs fresh.
func TestJournalDiscardsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, func(c *Config) { c.CheckpointDir = dir })
	ts := httptest.NewServer(s)
	defer ts.Close()

	job := chaosJob{wl: "Brighten", seed: 9}
	body := chaosBody(t, job.seed)
	// Plant garbage under the exact id the request will look up.
	id := jobID("Brighten", "opt", ipim.CycleMode.String(), 0, nil, 0, body)
	if err := s.journal.write(id, []byte("not a checkpoint")); err != nil {
		t.Fatal(err)
	}
	status, resumed, out := postJob(t, ts.URL, job, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	if resumed != "false" {
		t.Errorf("X-Ipim-Resumed = %q, want false (corrupt entry must be discarded)", resumed)
	}
	if got := scrapeMetric(t, ts.URL, "ipim_checkpoint_journal_pending"); got != 0 {
		t.Errorf("journal pending = %d, want 0 (corrupt entry removed, fresh run completed)", got)
	}
}

// TestWorkerPanicErrorIsTyped pins the sentinel the recovery path
// keys on: a recovered worker panic reports errWorkerPanic (so the
// journaled retry loop can match it) while keeping "panic" in the
// message for operators.
func TestWorkerPanicErrorIsTyped(t *testing.T) {
	s := testServer(t, nil)
	err := s.pool.submit(context.Background(), func(_ context.Context, m *ipim.Machine) error {
		panic("boom")
	})
	if !errors.Is(err, errWorkerPanic) {
		t.Fatalf("submit error = %v, want errWorkerPanic", err)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic error message lost the word 'panic': %v", err)
	}
	if got := s.pool.panicCount(); got != 1 {
		t.Fatalf("panicCount = %d, want 1", got)
	}
}
