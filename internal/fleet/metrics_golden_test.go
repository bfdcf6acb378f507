package fleet

// Exposition golden for the router: the full /metrics text after a
// fixed request sequence against two registered workers, compared byte
// for byte against testdata/metrics_golden.txt with the uptime masked.
// Regenerate with
//
//	go test ./internal/fleet -run '^TestRouterMetricsGolden$' -update
//
// only when a change is meant to alter the exposition.

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ipim/internal/serve"
)

var updateMetricsGolden = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt from the current router")

const metricsGoldenPath = "testdata/metrics_golden.txt"

var uptimeSeries = regexp.MustCompile(`(?m)^(ipim_router_uptime_seconds) .*$`)

func TestRouterMetricsGolden(t *testing.T) {
	rt := New(Config{
		WorkerTTL: time.Minute, // no sweeps: the worker states stay as registered
		Tenants:   []TenantConfig{{Name: "gold", Weight: 2}},
	})
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	one := func(c *serve.Config) { c.Workers = 1 }
	_, a := newWorker(t, "", one)
	_, b := newWorker(t, "", one)

	do := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Ipim-Tenant", "gold")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, msg)
		}
	}
	frame := string(pgmFrames(t, 1))

	do(http.MethodGet, "/readyz", "", http.StatusServiceUnavailable)
	do(http.MethodPost, "/fleet/register?addr="+a+"&state=ready", "", http.StatusOK)
	do(http.MethodPost, "/fleet/register?addr="+b+"&state=ready", "", http.StatusOK)
	do(http.MethodPost, "/fleet/register?addr=not-a-url", "", http.StatusBadRequest)
	do(http.MethodGet, "/healthz", "", http.StatusOK)
	do(http.MethodGet, "/readyz", "", http.StatusOK)
	do(http.MethodGet, "/fleet/workers", "", http.StatusOK)
	do(http.MethodPost, "/v1/process?workload=Brighten", frame, http.StatusOK)
	do(http.MethodPost, "/v1/process?workload=NoSuchKernel", frame, http.StatusNotFound)
	do(http.MethodPost, "/v1/stream?workload=Brighten", frame+frame, http.StatusOK)
	do(http.MethodGet, "/v1/workloads", "", http.StatusOK)
	do(http.MethodGet, "/no/such/route", "", http.StatusNotFound)
	do(http.MethodPost, "/fleet/register?addr="+b+"&state=draining", "", http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := uptimeSeries.ReplaceAllString(string(text), "$1 <wall-clock>")

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
		t.Errorf("router /metrics diverged from %s:\ngot:\n%s\nwant:\n%s", metricsGoldenPath, got, want)
	}
}
