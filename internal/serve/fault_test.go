package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipim"
)

// TestProcessRetriesTransientFaultThenSucceeds: an ExecFailFirst plan
// makes the first run on the (single) pooled machine fail with a
// transient fault; the handler's bounded retry reruns it on the same
// machine and the request still completes 200, reporting the retry in
// the response headers and the metrics.
func TestProcessRetriesTransientFaultThenSucceeds(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Workers = 1 // the retry must land on the machine that faulted
		c.Faults = &ipim.FaultPlan{Seed: 1, ExecFailFirst: 1}
		c.MaxRetries = 2
	})
	s.retryBackoff = time.Millisecond
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if rec.Code != http.StatusOK {
		t.Fatalf("process with retryable fault = %d %s, want 200", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Ipim-Retries"); got != "1" {
		t.Errorf("X-Ipim-Retries = %q, want \"1\"", got)
	}
	if got := rec.Header().Get("X-Ipim-Faults-Corrected"); got != "0" {
		t.Errorf("X-Ipim-Faults-Corrected = %q, want \"0\"", got)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "ipim_request_retries_total 1") {
		t.Errorf("metrics missing ipim_request_retries_total 1")
	}
}

// TestProcessTransientFaultWithRetriesDisabled: with retries disabled
// an unrecovered transient fault maps to 503 + Retry-After, telling
// the client the failure is worth retrying.
func TestProcessTransientFaultWithRetriesDisabled(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Workers = 1
		c.Faults = &ipim.FaultPlan{Seed: 1, ExecFailFirst: 1}
		c.MaxRetries = -1
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unrecovered transient fault = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 on transient fault must carry Retry-After")
	}
}

// TestDegradedModeShedsLoad: with every DRAM read injecting an
// uncorrectable error, one completed request trips the degraded-mode
// threshold; the next request is shed with 503 + Retry-After and the
// metrics report the degraded gauge and the fault counters.
func TestDegradedModeShedsLoad(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Faults = &ipim.FaultPlan{Seed: 3, DRAMBitFlipRate: 1, DRAMMultiBitFraction: 1}
		c.DegradeThreshold = 0.5
	})
	s.degrade = newDegradeState(0.5, 1, time.Minute)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if rec.Code != http.StatusOK {
		t.Fatalf("first request = %d %s, want 200", rec.Code, rec.Body.String())
	}
	unc, err := strconv.ParseInt(rec.Header().Get("X-Ipim-Faults-Uncorrected"), 10, 64)
	if err != nil || unc <= 0 {
		t.Fatalf("X-Ipim-Faults-Uncorrected = %q, want a positive count",
			rec.Header().Get("X-Ipim-Faults-Uncorrected"))
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request in degraded mode = %d, want 503", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("degraded 503 Retry-After = %q, want >= 1 second", rec.Header().Get("Retry-After"))
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "ipim_degraded 1") {
		t.Error("metrics missing ipim_degraded 1 while shedding")
	}
	for _, metric := range []string{"ipim_faults_injected_total", "ipim_faults_uncorrected_total"} {
		if metricValue(t, body, metric) <= 0 {
			t.Errorf("%s not positive under a rate-1 plan", metric)
		}
	}
}

// TestDegradedModeRecovers: after the cooldown elapses the server
// accepts work again (clock injected so the test doesn't sleep).
func TestDegradedModeRecovers(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Faults = &ipim.FaultPlan{Seed: 3, DRAMBitFlipRate: 1, DRAMMultiBitFraction: 1}
		c.DegradeThreshold = 0.5
	})
	s.degrade = newDegradeState(0.5, 1, time.Minute)
	now := time.Now()
	s.degrade.now = func() time.Time { return now }

	post := func() int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
			bytes.NewReader(pgmBody(t, 32, 16))))
		return rec.Code
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("first request = %d, want 200", code)
	}
	if code := post(); code != http.StatusServiceUnavailable {
		t.Fatalf("tripped request = %d, want 503", code)
	}
	now = now.Add(2 * time.Minute)
	if code := post(); code != http.StatusOK {
		t.Fatalf("request after cooldown = %d, want 200", code)
	}
}

// TestMetricsHistogramPerRoute pins the route-labeled exposition: each
// route owns its histogram series and no unlabeled series remains.
func TestMetricsHistogramPerRoute(t *testing.T) {
	s := testServer(t, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	// First scrape observes /healthz; its own latency lands in the
	// registry after rendering, so scrape twice.
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`ipim_request_seconds_count{route="/healthz"} 1`,
		`ipim_request_seconds_count{route="/metrics"} 1`,
		`ipim_request_seconds_bucket{route="/healthz",le="0.001"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "ipim_request_seconds") && !strings.Contains(line, `route="`) {
			t.Errorf("unlabeled histogram series survived: %q", line)
		}
	}
}
