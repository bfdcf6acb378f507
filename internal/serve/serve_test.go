package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ipim"
)

// testServer builds a server on the tiny machine configuration.
func testServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Machine:  ipim.TinyConfig(),
		Workers:  2,
		QueueCap: 8,
		CacheCap: 4,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// pgmBody renders a synthetic image as a binary PGM request body.
// 32x16 divides into 8x8 tiles across the tiny machine's 8 PEs.
func pgmBody(t *testing.T, w, h int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ipim.WritePGM(&buf, ipim.Synth(w, h, 7)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ppmBody(t *testing.T, w, h int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rp, gp, bp := ipim.Synth(w, h, 1), ipim.Synth(w, h, 2), ipim.Synth(w, h, 3)
	if err := ipim.WritePPM(&buf, rp, gp, bp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func processURL(base, workload string, extra string) string {
	u := base + "/v1/process?workload=" + workload
	if extra != "" {
		u += "&" + extra
	}
	return u
}

// TestProcessConcurrentCacheMissThenHits is the headline contract: N
// concurrent identical requests trigger exactly one compile, every
// response is 200 with identical bytes, and exactly one response is a
// cache miss.
func TestProcessConcurrentCacheMissThenHits(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := pgmBody(t, 32, 16)
	const n = 8
	type reply struct {
		status int
		cache  string
		body   []byte
		cycles string
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(processURL(ts.URL, "Brighten", ""), "image/x-portable-graymap", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			replies[i] = reply{
				status: resp.StatusCode,
				cache:  resp.Header.Get("X-Ipim-Cache"),
				body:   out,
				cycles: resp.Header.Get("X-Ipim-Cycles"),
			}
		}(i)
	}
	wg.Wait()

	misses := 0
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Errorf("request %d returned different bytes", i)
		}
		if c, err := strconv.ParseInt(r.cycles, 10, 64); err != nil || c <= 0 {
			t.Errorf("request %d: bad X-Ipim-Cycles %q", i, r.cycles)
		}
		if r.cache == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d cache misses across %d identical requests, want exactly 1", misses, n)
	}
	st := s.cache.stats()
	if st.Misses != 1 {
		t.Errorf("cache compiled %d times, want exactly 1", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("cache hits = %d, want %d", st.Hits, n-1)
	}
}

func TestProcessPPMAndAccountingHeaders(t *testing.T) {
	s := testServer(t, nil)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, processURL("", "GaussianBlur", "opts=baseline1"),
		bytes.NewReader(ppmBody(t, 32, 16)))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/x-portable-pixmap" {
		t.Errorf("Content-Type = %q", ct)
	}
	rp, gp, bp, err := ipim.ReadPPM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("response is not a PPM: %v", err)
	}
	if rp.W != 32 || rp.H != 16 || gp.W != 32 || bp.W != 32 {
		t.Errorf("output dims wrong: %dx%d", rp.W, rp.H)
	}
	for _, h := range []string{"X-Ipim-Cycles", "X-Ipim-Energy-Pj", "X-Ipim-Transfer-Ns", "X-Ipim-Kernel-Ns"} {
		v, err := strconv.ParseFloat(rec.Header().Get(h), 64)
		if err != nil || v <= 0 {
			t.Errorf("header %s = %q, want a positive number", h, rec.Header().Get(h))
		}
	}
	if got := rec.Header().Get("X-Ipim-Config"); got != "baseline1" {
		t.Errorf("X-Ipim-Config = %q", got)
	}
}

func TestProcessHistogramJSON(t *testing.T) {
	s := testServer(t, nil)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, processURL("", "Histogram", ""),
		bytes.NewReader(pgmBody(t, 32, 16)))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Workload string  `json:"workload"`
		Bins     []int32 `json:"bins"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Workload != "Histogram" || len(out.Bins) != 256 {
		t.Fatalf("workload=%q bins=%d", out.Workload, len(out.Bins))
	}
	var total int64
	for _, b := range out.Bins {
		total += int64(b)
	}
	if total != 32*16 {
		t.Errorf("bins sum to %d, want %d", total, 32*16)
	}
}

func TestProcessBadRequests(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxBodyBytes = 1 << 10 })
	pgm := pgmBody(t, 32, 16)
	cases := []struct {
		name   string
		method string
		url    string
		body   []byte
		want   int
	}{
		{"missing workload", http.MethodPost, "/v1/process", pgm, http.StatusBadRequest},
		{"unknown workload", http.MethodPost, "/v1/process?workload=Nope", pgm, http.StatusNotFound},
		{"unknown opts", http.MethodPost, "/v1/process?workload=Brighten&opts=nah", pgm, http.StatusBadRequest},
		{"bad timeout", http.MethodPost, "/v1/process?workload=Brighten&timeout=soon", pgm, http.StatusBadRequest},
		{"get not allowed", http.MethodGet, "/v1/process?workload=Brighten", nil, http.StatusMethodNotAllowed},
		{"not an image", http.MethodPost, "/v1/process?workload=Brighten", []byte("hello"), http.StatusBadRequest},
		{"truncated pgm", http.MethodPost, "/v1/process?workload=Brighten", pgm[:20], http.StatusBadRequest},
		{"body too large", http.MethodPost, "/v1/process?workload=Brighten",
			ppmBody(t, 32, 16), http.StatusRequestEntityTooLarge},
		{"incompilable size", http.MethodPost, "/v1/process?workload=Brighten",
			pgmBodyAt(t, 12, 8), http.StatusBadRequest},
		{"simb body too large", http.MethodPost, "/v1/simb",
			bytes.Repeat([]byte("sync\n"), 1<<9), http.StatusRequestEntityTooLarge},
		{"stream body too large", http.MethodPost, "/v1/stream?workload=Brighten",
			bytes.Repeat(pgm, 3), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(tc.method, tc.url, bytes.NewReader(tc.body))
			s.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (%s)", rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

func pgmBodyAt(t *testing.T, w, h int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ipim.WritePGM(&buf, ipim.Synth(w, h, 7)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueueFullReturns429: with the single worker blocked and the
// queue full, a process request is rejected with 429 + Retry-After.
func TestQueueFullReturns429(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1; c.QueueCap = 1 })
	release, _ := blockWorker(t, s.pool)
	defer release()
	// Fill the queue slot.
	go s.pool.submit(context.Background(), func(ctx context.Context, m *ipim.Machine) error { return nil })
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.queueDepth() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16)))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
}

// TestRequestTimeoutReturns504: a request whose deadline expires while
// its job waits behind a busy worker gets 504 and its job never runs.
func TestRequestTimeoutReturns504(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1; c.QueueCap = 4 })
	release, _ := blockWorker(t, s.pool)
	defer release()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, processURL("", "Brighten", "timeout=30ms"),
		bytes.NewReader(pgmBody(t, 32, 16)))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
}

// TestGracefulDrain: Shutdown lets the in-flight job finish, flips
// /readyz to 503 (while /healthz stays 200: the process is alive and
// finishing its queue), and rejects new process requests with 503.
func TestGracefulDrain(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1; c.QueueCap = 4 })
	release, done := blockWorker(t, s.pool)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Wait for drain mode to engage.
	deadline := time.Now().Add(10 * time.Second)
	for !s.isDraining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness is not readiness)", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("process during drain = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}

	release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("in-flight job failed during drain: %v", err)
	}
}

// TestMetricsContent drives one request through the server and checks
// the Prometheus exposition.
func TestMetricsContent(t *testing.T) {
	s := testServer(t, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Brighten", ""),
		bytes.NewReader(pgmBody(t, 32, 16))))
	if rec.Code != http.StatusOK {
		t.Fatalf("process: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`ipim_requests_total{route="/v1/process",status="200"} 1`,
		`ipim_request_seconds_bucket{route="/v1/process",le="+Inf"} 1`,
		`ipim_request_seconds_sum{route="/v1/process"} `,
		`ipim_request_seconds_count{route="/v1/process"} 1`,
		"ipim_faults_injected_total 0",
		"ipim_faults_corrected_total 0",
		"ipim_faults_uncorrected_total 0",
		"ipim_request_retries_total 0",
		"ipim_degraded 0",
		"ipim_queue_depth 0",
		"ipim_artifact_cache_hits_total 0",
		"ipim_artifact_cache_misses_total 1",
		"ipim_artifact_cache_entries 1",
		"ipim_worker_panics_total 0",
		"ipim_host_offloads_total 1",
		`ipim_host_bytes_total{direction="in"} ` + strconv.Itoa(len(pgmBody(t, 32, 16))),
		"# TYPE ipim_request_seconds histogram",
		"# TYPE ipim_simulated_cycles_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Simulated-work counters must be positive.
	for _, metric := range []string{"ipim_simulated_cycles_total", "ipim_simulated_energy_picojoules_total", "ipim_host_transfer_nanoseconds_total"} {
		v := metricValue(t, body, metric)
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", metric, v)
		}
	}
}

// TestMemoMetrics: the run-level timing memo's effect is visible in
// /metrics. The first cycle-mode request simulates its run and records
// it; the second runs the same program, so the memo answers it: two
// requests give both a miss and a hit. Functional mode bypasses the
// memo, so its counters stay at zero.
func TestMemoMetrics(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		wantHits bool
	}{{"cycle", true}, {"functional", false}} {
		t.Run(tc.mode, func(t *testing.T) {
			s := testServer(t, func(c *Config) { c.Workers = 1 })
			for i := 0; i < 2; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", "Shift", "mode="+tc.mode),
					bytes.NewReader(pgmBody(t, 32, 16))))
				if rec.Code != http.StatusOK {
					t.Fatalf("process: %d %s", rec.Code, rec.Body.String())
				}
			}
			body := metricsBody(t, s)
			hits := metricValue(t, body, "ipim_sim_memo_hits_total")
			misses := metricValue(t, body, "ipim_sim_memo_misses_total")
			ff := metricValue(t, body, "ipim_sim_fastforwarded_cycles_total")
			if tc.wantHits && (hits <= 0 || misses <= 0) {
				t.Errorf("cycle mode: memo hits %v, misses %v; want both > 0", hits, misses)
			}
			if !tc.wantHits && (hits != 0 || misses != 0 || ff != 0) {
				t.Errorf("functional mode: memo hits %v, misses %v, fast-forwarded %v; want all 0", hits, misses, ff)
			}
		})
	}
}

// TestServedCyclesMatchFreshMachine: one pooled machine serves an
// interleaved sequence of cycle-mode Table II requests, including a
// repeat and a histogram, and every response reports the simulated
// cycles and instructions ipim.Run (or RunHistogram) gives that request
// on a fresh machine — what a machine ran before never shows.
func TestServedCyclesMatchFreshMachine(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1 })
	cfg := ipim.TinyConfig()
	body := pgmBody(t, 32, 16)
	img, err := ipim.ReadPGM(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"GaussianBlur", "Shift", "Histogram", "Brighten", "GaussianBlur", "Shift"} {
		wl, err := ipim.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		art, err := ipim.Compile(&cfg, wl.Build().Pipe, img.W, img.H, ipim.Opt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ipim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want ipim.Stats
		if name == "Histogram" {
			_, want, err = ipim.RunHistogram(m, art, img)
		} else {
			_, want, err = ipim.Run(m, art, img)
		}
		if err != nil {
			t.Fatalf("%s on a fresh machine: %v", name, err)
		}

		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, processURL("", name, ""), bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d (%s): %d %s", i, name, rec.Code, rec.Body.String())
		}
		for h, v := range map[string]int64{"X-Ipim-Cycles": want.Cycles, "X-Ipim-Instructions": want.Issued} {
			if got := rec.Header().Get(h); got != strconv.FormatInt(v, 10) {
				t.Errorf("request %d (%s): %s = %s, fresh machine gives %d", i, name, h, got, v)
			}
		}
	}
}

// metricValue extracts an unlabeled metric's value from an exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func TestHealthzAndWorkloads(t *testing.T) {
	s := testServer(t, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("workloads: %d", rec.Code)
	}
	var out struct {
		Workloads []workloadInfo `json:"workloads"`
		Configs   []string       `json:"configs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Workloads) != len(ipim.Workloads()) {
		t.Errorf("listed %d workloads, want %d", len(out.Workloads), len(ipim.Workloads()))
	}
	if len(out.Configs) == 0 || out.Configs[0] != "opt" {
		t.Errorf("configs = %v", out.Configs)
	}
}

// TestSimbEmptyVecMaskAtTopOfAddressSpace: an ld_rf whose vector mask
// selects no lane touches no bank column, so at an address whose lane
// span would wrap past 2^32 it completes at once under a small cycle
// budget instead of walking the bank.
func TestSimbEmptyVecMaskAtTopOfAddressSpace(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Workers = 1 })
	rec := postSimb(t, s, "max_cycles=1000", "ld_rf d0, 0xFFFFFFF8, vm=0x0, sm=0x1\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}
