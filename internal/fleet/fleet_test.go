package fleet

// Router/worker integration, in-process: real serve.Servers in fleet
// worker mode heartbeat into a real Router, requests flow through the
// proxy. The headline test is the differential gate ISSUE 10 pins: the
// same request set through the router to a 2-worker fleet returns
// byte-identical output to a single standalone server — including a
// stream whose owning worker aborts mid-flight.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipim"
	"ipim/internal/pixel"
	"ipim/internal/serve"
)

// testFleet is one router plus n registered workers.
type testFleet struct {
	rt        *Router
	routerTS  *httptest.Server
	servers   []*serve.Server
	workerURL []string
}

// newWorker builds one serve.Server on a pre-bound listener so its
// advertise address is known before New starts the heartbeat.
func newWorker(t *testing.T, routerURL string, mutate func(*serve.Config)) (*serve.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	cfg := serve.Config{
		Machine:  ipim.TinyConfig(),
		Workers:  2,
		QueueCap: 16,
		CacheCap: 8,
	}
	if routerURL != "" {
		cfg.RouterURL = routerURL
		cfg.AdvertiseAddr = addr
		cfg.HeartbeatInterval = 25 * time.Millisecond
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := serve.New(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	return s, addr
}

// newTestFleet starts a router and n workers and waits until every
// worker has heartbeated into the ring.
func newTestFleet(t *testing.T, n int, mutateRouter func(*Config)) *testFleet {
	t.Helper()
	cfg := Config{WorkerTTL: time.Second, SweepInterval: 50 * time.Millisecond}
	if mutateRouter != nil {
		mutateRouter(&cfg)
	}
	rt := New(cfg)
	t.Cleanup(rt.Close)
	routerTS := httptest.NewServer(rt)
	t.Cleanup(routerTS.Close)

	f := &testFleet{rt: rt, routerTS: routerTS}
	for i := 0; i < n; i++ {
		s, addr := newWorker(t, routerTS.URL, nil)
		f.servers = append(f.servers, s)
		f.workerURL = append(f.workerURL, addr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.reg.ReadyCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered", rt.reg.ReadyCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f
}

// serverFor maps a worker address back to its serve.Server.
func (f *testFleet) serverFor(t *testing.T, addr string) *serve.Server {
	t.Helper()
	for i, u := range f.workerURL {
		if u == addr {
			return f.servers[i]
		}
	}
	t.Fatalf("no worker at %s (have %v)", addr, f.workerURL)
	return nil
}

// pgmFrames builds n concatenated 32x16 PGM frames, seeds 1..n.
func pgmFrames(t *testing.T, n int) []byte {
	t.Helper()
	var body []byte
	for seed := uint64(1); seed <= uint64(n); seed++ {
		var buf bytes.Buffer
		if err := ipim.WritePGM(&buf, ipim.Synth(32, 16, seed)); err != nil {
			t.Fatal(err)
		}
		body = append(body, buf.Bytes()...)
	}
	return body
}

// post issues one POST and returns status, headers and body.
func post(t *testing.T, url string, body []byte, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, out
}

func scrapeRouterMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v)
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestFleetDifferentialGate: the acceptance gate. Every request of a
// mixed set — PGM and PPM process requests across workloads, a
// histogram reduction, and a 4-frame stream whose owning worker is
// rigged to abort its connection after 2 frames — comes back through
// the 2-worker fleet byte-identical to a single standalone server,
// with the same simulated cycles and energy on the process requests
// (every run starts from a fresh machine, so neither depends on which
// worker ran what before), and the injected crash shows up in
// ipim_router_failovers_total.
func TestFleetDifferentialGate(t *testing.T) {
	_, singleURL := newWorker(t, "", nil)
	f := newTestFleet(t, 2, nil)

	type request struct {
		name  string
		path  string
		query string
		body  []byte
	}
	var reqs []request
	for _, wl := range []string{"Brighten", "GaussianBlur", "Shift"} {
		reqs = append(reqs, request{wl, "/v1/process", "workload=" + wl, pgmFrames(t, 1)})
	}
	reqs = append(reqs, request{"Histogram", "/v1/process", "workload=Histogram", pgmFrames(t, 1)})
	var ppm bytes.Buffer
	if err := ipim.WritePPM(&ppm, ipim.Synth(32, 16, 4), ipim.Synth(32, 16, 5), ipim.Synth(32, 16, 6)); err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, request{"BrightenPPM", "/v1/process", "workload=Brighten", ppm.Bytes()})

	for _, rq := range reqs {
		url := "/" + strings.TrimPrefix(rq.path, "/") + "?" + rq.query
		wantStatus, wantHdr, want := post(t, singleURL+url, rq.body, nil)
		gotStatus, hdr, got := post(t, f.routerTS.URL+url, rq.body, map[string]string{"X-Ipim-Tenant": "anyone"})
		if wantStatus != http.StatusOK || gotStatus != wantStatus {
			t.Fatalf("%s: single=%d fleet=%d: %s", rq.name, wantStatus, gotStatus, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fleet response differs from the standalone server", rq.name)
		}
		for _, h := range []string{"X-Ipim-Cycles", "X-Ipim-Energy-Pj"} {
			if g, w := hdr.Get(h), wantHdr.Get(h); g == "" || g != w {
				t.Errorf("%s: fleet %s = %q, standalone %q", rq.name, h, g, w)
			}
		}
		if hdr.Get("X-Ipim-Worker") == "" {
			t.Errorf("%s: router did not stamp X-Ipim-Worker", rq.name)
		}
	}

	// The stream leg, with a crash injected on the OWNER of the
	// stream's routing key: it aborts its connection after relaying 2
	// of 4 frames, and the router must splice the remainder from the
	// other worker without the client seeing anything but 4 perfect
	// frames.
	streamBody := pgmFrames(t, 4)
	key := "art|GaussianBlur|opt|32x16" // routingKey's shape for this request
	owner, ok := f.rt.reg.Pick(key)
	if !ok {
		t.Fatal("no owner for the stream key")
	}
	f.serverFor(t, owner).SetStreamChaos(2)

	streamURL := "/v1/stream?workload=GaussianBlur"
	wantStatus, _, want := post(t, singleURL+streamURL, streamBody, nil)
	if wantStatus != http.StatusOK {
		t.Fatalf("single stream: status %d: %s", wantStatus, want)
	}
	gotStatus, hdr, got := post(t, f.routerTS.URL+streamURL, streamBody, nil)
	if gotStatus != http.StatusOK {
		t.Fatalf("fleet stream: status %d: %s", gotStatus, got)
	}
	if hdr.Get("X-Ipim-Worker") != owner {
		t.Errorf("stream started on %s, want the key's owner %s", hdr.Get("X-Ipim-Worker"), owner)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("spliced stream differs from the undisturbed stream (%d vs %d bytes)", len(got), len(want))
	}
	if frames, _, _, err := pixel.SplitPGMFrames(got, 0); err != nil || len(frames) != 4 {
		t.Fatalf("fleet stream = %d frames (%v), want 4", len(frames), err)
	}
	if n := scrapeRouterMetric(t, f.routerTS.URL, "ipim_router_failovers_total"); n < 1 {
		t.Errorf("ipim_router_failovers_total = %g, want >= 1", n)
	}
}

// TestStreamStickyAcrossRequests: the same stream key keeps landing on
// the same worker no matter what other traffic runs in between.
func TestStreamStickyAcrossRequests(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	streamBody := pgmFrames(t, 2)
	streamURL := f.routerTS.URL + "/v1/stream?workload=Brighten"

	_, hdr, body := post(t, streamURL, streamBody, nil)
	first := hdr.Get("X-Ipim-Worker")
	if first == "" {
		t.Fatalf("no worker header: %s", body)
	}
	for i := 0; i < 3; i++ {
		// Intervening traffic with different keys.
		for _, wl := range []string{"Shift", "Downsample", "GaussianBlur"} {
			post(t, f.routerTS.URL+"/v1/process?workload="+wl, pgmFrames(t, 1), nil)
		}
		_, hdr, _ := post(t, streamURL, streamBody, nil)
		if got := hdr.Get("X-Ipim-Worker"); got != first {
			t.Fatalf("round %d: stream moved from %s to %s with a stable fleet", i, first, got)
		}
	}
}

// TestFleetFailoverOnDeadWorker: a registered-then-vanished worker
// (connection refused) is marked down on first contact and a request
// it owns fails over transparently to the live worker.
func TestFleetFailoverOnDeadWorker(t *testing.T) {
	f := newTestFleet(t, 1, nil)
	// Hand-register a corpse: reserved a port, then closed it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	corpse := "http://" + ln.Addr().String()
	ln.Close()
	if err := f.rt.reg.Beat(corpse, StateReady); err != nil {
		t.Fatal(err)
	}

	// Pick a request whose key the ring places on the corpse. Table II
	// names times compiler options give 50 keys, so one lands there on
	// any placement but a vanishingly unlikely one.
	body := pgmFrames(t, 1)
	url := ""
search:
	for _, wl := range ipim.Workloads() {
		for _, opts := range ipim.OptionNames() {
			u := f.routerTS.URL + "/v1/process?workload=" + wl.Name + "&opts=" + opts
			key := f.rt.routingKey(httptest.NewRequest(http.MethodPost, u, nil), body)
			if owner, _ := f.rt.reg.Pick(key); owner == corpse {
				url = u
				break search
			}
		}
	}
	if url == "" {
		t.Fatal("no Table II request key lands on the dead worker")
	}
	_, hdr, _ := post(t, url, body, nil)
	if got := hdr.Get("X-Ipim-Worker"); got != f.workerURL[0] {
		t.Errorf("request owned by the dead worker was served by %q, want the live %s", got, f.workerURL[0])
	}
	if n := scrapeRouterMetric(t, f.routerTS.URL, "ipim_router_failovers_total"); n < 1 {
		t.Errorf("ipim_router_failovers_total = %v after a request to the dead worker; want >= 1", n)
	}
}

// TestWorkerDrainLeavesRing: Shutdown's final heartbeat flips the
// worker to draining and pulls it from the ring before the pool stops.
func TestWorkerDrainLeavesRing(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	if err := f.servers[0].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.rt.reg.ReadyCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("ready count = %d after drain, want 1", f.rt.reg.ReadyCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, ws := range f.rt.reg.Snapshot() {
		if ws.Addr == f.workerURL[0] && ws.State != StateDraining {
			t.Fatalf("drained worker state = %s, want draining", ws.State)
		}
	}
	// Traffic keeps flowing via the survivor.
	status, hdr, body := post(t, f.routerTS.URL+"/v1/process?workload=Brighten", pgmFrames(t, 1), nil)
	if status != http.StatusOK {
		t.Fatalf("post-drain request: status %d: %s", status, body)
	}
	if got := hdr.Get("X-Ipim-Worker"); got != f.workerURL[1] {
		t.Fatalf("post-drain request served by %s, want the survivor %s", got, f.workerURL[1])
	}
}

// TestRegistrySweepExpiresSilentWorkers: unit-level TTL check.
func TestRegistrySweepExpiresSilentWorkers(t *testing.T) {
	g := NewRegistry(8, 30*time.Millisecond)
	if err := g.Beat("http://w0", StateReady); err != nil {
		t.Fatal(err)
	}
	if g.ReadyCount() != 1 {
		t.Fatal("beat did not join the ring")
	}
	if n := g.Sweep(); n != 0 {
		t.Fatalf("fresh worker swept (%d)", n)
	}
	time.Sleep(50 * time.Millisecond)
	if n := g.Sweep(); n != 1 {
		t.Fatalf("sweep took down %d workers, want 1", n)
	}
	if g.ReadyCount() != 0 {
		t.Fatal("swept worker still in the ring")
	}
	// A late beat resurrects it.
	if err := g.Beat("http://w0", StateReady); err != nil {
		t.Fatal(err)
	}
	if g.ReadyCount() != 1 {
		t.Fatal("resurrection beat did not rejoin the ring")
	}
}

// TestRouterReadyzAndWorkersEndpoint: the router reports not-ready
// with an empty ring and lists workers as they come and go.
func TestRouterReadyzAndWorkersEndpoint(t *testing.T) {
	rt := New(Config{WorkerTTL: time.Second, SweepInterval: 50 * time.Millisecond})
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet /readyz = %d, want 503", resp.StatusCode)
	}
	status, _, body := post(t, ts.URL+"/v1/process?workload=Brighten", pgmFrames(t, 1), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet proxy = %d, want 503: %s", status, body)
	}

	if _, err := http.Post(ts.URL+"/fleet/register?addr=http://127.0.0.1:9&state=ready", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with a registered worker = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(listing), "127.0.0.1:9") {
		t.Fatalf("/fleet/workers missing the registered worker: %s", listing)
	}
	// Bad registrations are rejected.
	for _, q := range []string{"addr=not-a-url", "addr=ftp://x:1", "addr=http://x:1&state=wat", ""} {
		resp, err := http.Post(ts.URL+"/fleet/register?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}
