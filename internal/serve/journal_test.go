package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"ipim"
	"ipim/internal/autotune"
)

// TestJournalEntryBelongsToItsSchedule: a journal entry resumes only
// under the artifact that wrote it. A job crashes after its first
// checkpoint, the tuner then swaps the key's artifact for a tile-8×4
// schedule, and the re-submitted job must run fresh under the new
// artifact and answer what a clean server answers, instead of restoring
// the old program and reading its output through the new plan. The
// entry the crash left can never resume, so the fresh run removes it.
func TestJournalEntryBelongsToItsSchedule(t *testing.T) {
	job := chaosJob{wl: "GaussianBlur", seed: 4}
	body := chaosBody(t, job.seed)
	cleanTS := httptest.NewServer(testServer(t, nil))
	defer cleanTS.Close()
	status, _, want := postJob(t, cleanTS.URL, job, body)
	if status != http.StatusOK {
		t.Fatalf("clean server: status %d: %s", status, want)
	}

	s := testServer(t, func(c *Config) {
		c.CheckpointDir = t.TempDir()
		c.MaxRetries = -1
	})
	s.chaosCrashAfter = 1
	ts := httptest.NewServer(s)
	defer ts.Close()
	if status, _, out := postJob(t, ts.URL, job, body); status != http.StatusInternalServerError {
		t.Fatalf("crashing run: status %d, want 500: %s", status, out)
	}
	if n := s.journal.pending(); n != 1 {
		t.Fatalf("journal holds %d entries after the crash, want 1", n)
	}
	s.chaosCrashAfter = 0

	cfg := ipim.TinyConfig()
	wl, err := ipim.WorkloadByName(job.wl)
	if err != nil {
		t.Fatal(err)
	}
	cand := autotune.Candidate{TileW: 8, TileH: 4}
	art, err := ipim.Compile(&cfg, autotune.Apply(wl.Build().Pipe, cand), 32, 16, ipim.Opt)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.swap(cacheKey{Workload: job.wl, W: 32, H: 16, Opts: ipim.Opt}, art, &cand)

	status, resumed, out := postJob(t, ts.URL, job, body)
	if status != http.StatusOK {
		t.Fatalf("re-submitted job: status %d: %s", status, out)
	}
	if resumed != "false" {
		t.Errorf("re-submitted job under a new schedule: X-Ipim-Resumed = %q, want false", resumed)
	}
	if !bytes.Equal(out, want) {
		t.Error("re-submitted job under a new schedule differs from a clean run")
	}
	if n := s.journal.pending(); n != 0 {
		t.Errorf("journal holds %d entries after the re-submitted job, want 0", n)
	}
}
