package serve

// Exposition golden: the full /metrics text of one worker with every
// optional family on (background tuning and the checkpoint journal),
// after a fixed request sequence, compared byte for byte against
// testdata/metrics_golden.txt with the wall-clock values masked.
// Regenerate with
//
//	go test ./internal/serve -run '^TestMetricsGolden$' -update
//
// only when a change is meant to alter the exposition: series names,
// labels, HELP/TYPE lines, family order and number formatting are all
// part of the contract scrapers and the benchmark harness parse.

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateMetricsGolden = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt from the current server")

const metricsGoldenPath = "testdata/metrics_golden.txt"

// wallClockSeries matches the samples whose values depend on host
// timing rather than on the request sequence: uptime, busy time, and
// the latency histogram's sums and finite buckets.
var wallClockSeries = regexp.MustCompile(`(?m)^(ipim_process_uptime_seconds|ipim_worker_busy_seconds|ipim_request_seconds_sum\{[^}]*\}|ipim_request_seconds_bucket\{[^}]*le="[0-9][^}]*\}) .*$`)

func maskWallClock(exposition string) string {
	return wallClockSeries.ReplaceAllString(exposition, "$1 <wall-clock>")
}

func TestMetricsGolden(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Workers = 1 // one machine: its memo and fast-forward tallies are deterministic
		c.CheckpointDir = t.TempDir()
		c.TuneWorkers = 1
		c.TuneMargin = 1.0
	})
	do := func(method, path, body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
	}
	pgm, ppm := string(pgmBody(t, 32, 16)), string(ppmBody(t, 32, 16))

	do(http.MethodGet, "/healthz", "", http.StatusOK)
	do(http.MethodGet, "/readyz", "", http.StatusOK)
	do(http.MethodGet, "/v1/workloads", "", http.StatusOK)
	do(http.MethodPost, "/v1/process?workload=GaussianBlur", pgm, http.StatusOK)
	// Let the one background search land before anything else touches
	// its key, so every later request runs the tuned artifact.
	deadline := time.Now().Add(60 * time.Second)
	for st := s.tuner.snapshot(); st.Queued > 0 || st.Completed+st.Failed == 0; st = s.tuner.snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("background tuning did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	do(http.MethodPost, "/v1/process?workload=GaussianBlur", pgm, http.StatusOK)
	do(http.MethodPost, "/v1/process?workload=GaussianBlur&mode=functional", pgm, http.StatusOK)
	do(http.MethodPost, "/v1/process?workload=GaussianBlur", ppm, http.StatusOK)
	do(http.MethodPost, "/v1/process?workload=Histogram", pgm, http.StatusOK)
	do(http.MethodPost, "/v1/stream?workload=GaussianBlur", pgm+pgm, http.StatusOK)
	do(http.MethodPost, "/v1/simb", simbFinite, http.StatusOK)
	do(http.MethodPost, "/v1/process?workload=NoSuchKernel", pgm, http.StatusNotFound)
	do(http.MethodPost, "/v1/process?workload=GaussianBlur", "not an image", http.StatusBadRequest)
	do(http.MethodGet, "/v1/process", "", http.StatusMethodNotAllowed)
	do(http.MethodGet, "/no/such/route", "", http.StatusNotFound)
	do(http.MethodGet, "/v1/tune", "", http.StatusOK)

	got := maskWallClock(metricsBody(t, s))
	if *updateMetricsGolden {
		if err := os.MkdirAll(filepath.Dir(metricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics diverged from %s:\n%s", metricsGoldenPath, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between two expositions, by
// position, so a failure names the series that moved.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return b.String()
}
