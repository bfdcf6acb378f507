package fleet

// The router proper: tenant admission, key derivation, forwarding with
// health-aware failover, and the stream relay.
//
// Failure model: a transport-level error talking to a worker marks it
// down and re-Picks — the ring without the dead member hands the key
// to its new owner, and by the simulator's determinism contract the
// replayed work is byte-identical, so failover is invisible to the
// client. Application-level errors (4xx/5xx a worker chose to send)
// are relayed as-is: they are deterministic and would recur anywhere.
//
// The stream relay buffers one whole output frame at a time: the
// client never sees a torn frame, and on a mid-stream worker death the
// router re-dispatches exactly the input frames whose outputs it has
// not yet relayed.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"time"
	"unicode/utf8"

	"ipim/internal/obs"
	"ipim/internal/pixel"
)

// Config configures a Router. The zero value is usable.
type Config struct {
	// Vnodes is the consistent-hash ring's virtual-node count per
	// worker (default 64).
	Vnodes int
	// WorkerTTL expires workers whose heartbeats stop (default 3s);
	// SweepInterval is how often the expiry scan runs (default 500ms).
	WorkerTTL     time.Duration
	SweepInterval time.Duration
	// FailoverAttempts bounds how many non-progressing worker switches
	// one request survives before failing (default 2). A switch that
	// relayed at least one stream frame resets the budget.
	FailoverAttempts int
	// MaxInflight caps admitted requests fleet-wide (default 64);
	// TenantQueueCap bounds each tenant's admission queue (default 64);
	// Tenants configures the weighted tenants (a weight-1 "default" is
	// always present).
	MaxInflight    int
	TenantQueueCap int
	Tenants        []TenantConfig
	// MaxBodyBytes bounds request bodies (default 64 MiB; the router
	// buffers bodies so it can replay them on failover).
	MaxBodyBytes int64
	// Logger receives access and failover logs (default: discard).
	Logger *log.Logger
	// Client performs the worker-side requests (default: a client with
	// no overall timeout — streams are long-lived; worker liveness is
	// the heartbeat's job).
	Client *http.Client
}

func (c *Config) fillDefaults() {
	if c.WorkerTTL == 0 {
		c.WorkerTTL = 3 * time.Second
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 500 * time.Millisecond
	}
	if c.FailoverAttempts == 0 {
		c.FailoverAttempts = 2
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
}

// Router is the fleet front tier. Create with New, mount it (it
// implements http.Handler), call Close on shutdown.
type Router struct {
	cfg     Config
	reg     *Registry
	sched   *Scheduler
	metrics routerMetrics
	mux     *http.ServeMux

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// New builds the registry, admission scheduler and routes, and starts
// the heartbeat-TTL sweeper.
func New(cfg Config) *Router {
	cfg.fillDefaults()
	rt := &Router{
		cfg:       cfg,
		reg:       NewRegistry(cfg.Vnodes, cfg.WorkerTTL),
		sched:     NewScheduler(cfg.MaxInflight, cfg.TenantQueueCap, cfg.Tenants),
		mux:       http.NewServeMux(),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	reg := rt.registerMetrics()
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.Handle("/metrics", reg)
	rt.mux.HandleFunc("/fleet/register", rt.handleRegister)
	rt.mux.HandleFunc("/fleet/workers", rt.handleWorkers)
	rt.mux.HandleFunc("/", rt.route)
	go rt.sweeper()
	return rt
}

// routerMetrics holds the series the router updates itself; the rest
// of its exposition is sampled from the registry and scheduler at
// render time.
type routerMetrics struct {
	requests *obs.CounterVec

	failovers      *obs.Counter // mid-request switches to another worker
	streams        *obs.Counter // streams relayed to completion
	framesRelayed  *obs.Counter // output frames relayed across all streams
	beats          *obs.Counter // heartbeats accepted
	sweptDown      *obs.Counter // workers expired by the TTL sweep
	rejectedTenant *obs.Counter // admissions refused with a full tenant queue
}

// registerMetrics builds the router's exposition, in render order.
func (rt *Router) registerMetrics() *obs.Registry {
	start := time.Now()
	reg := &obs.Registry{}
	mt := &rt.metrics
	mt.requests = reg.CounterVec("ipim_router_requests_total", "Requests handled by the router, by route and status.", "route", "status")
	mt.failovers = reg.Counter("ipim_router_failovers_total", "Mid-request failovers to another worker.")
	mt.streams = reg.Counter("ipim_router_streams_total", "Streams relayed to completion.")
	mt.framesRelayed = reg.Counter("ipim_router_stream_frames_total", "Output frames relayed to stream clients.")
	mt.beats = reg.Counter("ipim_router_heartbeats_total", "Worker heartbeats accepted.")
	mt.sweptDown = reg.Counter("ipim_router_workers_swept_total", "Workers expired by the heartbeat TTL sweep.")
	mt.rejectedTenant = reg.Counter("ipim_tenant_rejections_total", "Admissions refused with a full tenant queue.")
	reg.Samples(obs.TypeGauge, "ipim_router_workers", "Known workers, by state.", "state",
		func() []obs.Sample { return obs.SortedSamples(rt.reg.stateCounts()) })
	reg.Func(obs.TypeGauge, "ipim_router_ready_workers", "Workers currently in the routing ring.",
		func() int64 { return int64(rt.reg.ReadyCount()) })
	reg.Samples(obs.TypeGauge, "ipim_tenant_queue_depth", "Requests waiting for admission, by tenant.", "tenant",
		func() []obs.Sample { return obs.SortedSamples(rt.sched.Depths()) })
	reg.Func(obs.TypeGauge, "ipim_router_inflight", "Admitted requests currently in flight.",
		func() int64 { return int64(rt.sched.Inflight()) })
	reg.FloatFunc(obs.TypeGauge, "ipim_router_uptime_seconds", "Seconds since the router started.",
		func() float64 { return time.Since(start).Seconds() })
	return reg
}

// Close stops the TTL sweeper.
func (rt *Router) Close() {
	select {
	case <-rt.stopSweep:
	default:
		close(rt.stopSweep)
		<-rt.sweepDone
	}
}

func (rt *Router) sweeper() {
	defer close(rt.sweepDone)
	tick := time.NewTicker(rt.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopSweep:
			return
		case <-tick.C:
			if n := rt.reg.Sweep(); n > 0 {
				rt.metrics.sweptDown.Add(int64(n))
				rt.cfg.Logger.Printf("fleet: swept %d worker(s) whose heartbeats expired", n)
			}
		}
	}
}

// ServeHTTP wraps the routes with access logging and metrics.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	rec := obs.NewStatusRecorder(w)
	rt.mux.ServeHTTP(rec, r)
	rt.metrics.requests.With(routeLabel(r.URL.Path), obs.StatusLabel(rec.Status)).Inc()
	rt.cfg.Logger.Printf("method=%s path=%s status=%d dur=%s remote=%s",
		r.Method, r.URL.Path, rec.Status, time.Since(t0).Round(time.Microsecond), r.RemoteAddr)
}

// routeLabel bounds the metrics route cardinality.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/readyz", "/metrics", "/fleet/register", "/fleet/workers",
		"/v1/workloads", "/v1/process", "/v1/stream", "/v1/simb", "/v1/tune":
		return path
	}
	return "other"
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: the router is ready when it can route, i.e. at least
// one worker is in the ring.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.reg.ReadyCount() == 0 {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no ready workers", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleRegister accepts one worker heartbeat:
// POST /fleet/register?addr=http://host:port&state=ready. The address
// must be an absolute http(s) URL in valid UTF-8, so the router can
// forward to it and /fleet/workers lists it as registered.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	addr := q.Get("addr")
	u, err := url.Parse(addr)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || !utf8.ValidString(addr) {
		http.Error(w, "addr must be the worker's absolute base URL", http.StatusBadRequest)
		return
	}
	state := q.Get("state")
	if state == "" {
		state = StateReady
	}
	if err := rt.reg.Beat(addr, state); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rt.metrics.beats.Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleWorkers lists the fleet as JSON (operator visibility).
func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"workers": rt.reg.Snapshot()})
}

// routingKey derives the placement key for a request. Artifact-shaped
// requests (/v1/process, /v1/stream) key on (workload, opts, geometry)
// — exactly the worker's compile-cache key, so one worker owns each
// artifact's compilation, cache entry and tuning. /v1/simb keys on the
// program hash. Anything else keys on its path (any worker can serve
// it; the ring just makes the choice stable).
func (rt *Router) routingKey(r *http.Request, body []byte) string {
	q := r.URL.Query()
	switch r.URL.Path {
	case "/v1/process", "/v1/stream":
		opts := q.Get("opts")
		if opts == "" {
			opts = "opt"
		}
		if _, w, h, err := pixel.NetpbmDims(body); err == nil {
			return fmt.Sprintf("art|%s|%s|%dx%d", q.Get("workload"), opts, w, h)
		}
		return "art|" + q.Get("workload") + "|" + opts
	case "/v1/simb":
		sum := sha256.Sum256(body)
		return "simb|" + hex.EncodeToString(sum[:8])
	}
	return "meta|" + r.URL.Path
}

// route is the catch-all proxy: admit, key, forward with failover.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	body, ok := obs.ReadBody(w, r, rt.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	tenant := r.Header.Get("X-Ipim-Tenant")
	if err := rt.sched.Acquire(r.Context(), tenant); err != nil {
		if errors.Is(err, ErrTenantQueueFull) {
			rt.metrics.rejectedTenant.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), obs.StatusClientClosedRequest)
		return
	}
	defer rt.sched.Release()

	key := rt.routingKey(r, body)
	if r.URL.Path == "/v1/stream" && r.Method == http.MethodPost {
		rt.relayStream(w, r, body, key)
		return
	}
	failures := 0
	resp, addr, err := rt.dispatch(r, key, body, &failures)
	if err != nil {
		rt.fail(w, 0, err)
		return
	}
	relay(w, resp, addr)
}

// errNoWorkers means the ring is empty: no worker is ready.
var errNoWorkers = errors.New("no ready workers")

// dispatch sends body to the key's owner and returns the first
// response a worker gives, success or error. A transport error marks
// the worker down and re-picks: the ring without the dead member hands
// the key to its new owner. *failures counts consecutive switches that
// made no progress; past FailoverAttempts of them dispatch gives up.
// The error it returns then, or errNoWorkers, is the one to fail with.
func (rt *Router) dispatch(r *http.Request, key string, body []byte, failures *int) (*http.Response, string, error) {
	for {
		addr, ok := rt.reg.Pick(key)
		if !ok {
			return nil, "", errNoWorkers
		}
		resp, err := rt.forward(r, addr, body)
		if err == nil {
			return resp, addr, nil
		}
		rt.failover(addr, fmt.Sprintf("failed before responding (%v)", err))
		if *failures++; *failures > rt.cfg.FailoverAttempts {
			return nil, "", fmt.Errorf("no worker could serve the request (last: %v)", err)
		}
	}
}

// failover takes a failed worker out of the ring and logs why.
func (rt *Router) failover(addr, why string) {
	rt.reg.MarkDown(addr)
	rt.metrics.failovers.Inc()
	rt.cfg.Logger.Printf("fleet: worker %s %s, failing over", addr, why)
}

// fail answers a request dispatch could not place: 503 with no ready
// worker, 502 once failover gave up, both with Retry-After. A stream
// that already relayed frames has committed its status line (a short
// 200 body would be a lie), so its connection is torn down instead.
func (rt *Router) fail(w http.ResponseWriter, sent int, err error) {
	if sent > 0 {
		panic(http.ErrAbortHandler)
	}
	code := http.StatusBadGateway
	if errors.Is(err, errNoWorkers) {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, err.Error(), code)
}

// relayHeader copies a worker response's header to w and names the
// worker that served it.
func relayHeader(w http.ResponseWriter, resp *http.Response, addr string) {
	h := w.Header()
	for name, vals := range resp.Header {
		h[name] = vals
	}
	h.Set("X-Ipim-Worker", addr)
}

// relay writes a whole worker response to w verbatim, plus the
// X-Ipim-Worker header.
func relay(w http.ResponseWriter, resp *http.Response, addr string) {
	defer resp.Body.Close()
	relayHeader(w, resp, addr)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// forward issues the worker-side copy of a request.
func (rt *Router) forward(r *http.Request, addr string, body []byte) (*http.Response, error) {
	u := addr + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for name, vals := range r.Header {
		req.Header[name] = vals
	}
	return rt.cfg.Client.Do(req)
}

// relayStream proxies /v1/stream with sticky placement and mid-stream
// failover: the stream's input frames go to the key's owner, output
// frames are relayed one whole frame at a time, and when the upstream
// dies after frame k the router re-dispatches input frames k..n-1 to
// the key's next owner. Determinism makes the spliced output
// byte-identical to an undisturbed stream.
func (rt *Router) relayStream(w http.ResponseWriter, r *http.Request, body []byte, key string) {
	frames, _, _, err := pixel.SplitPGMFrames(body, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// frames are subslices of body, so the not-yet-relayed suffix
	// starting at input frame k is body[offsets[k]:].
	offsets := make([]int, len(frames))
	off := 0
	for i, f := range frames {
		offsets[i] = off
		off += len(f)
	}

	rc := http.NewResponseController(w)
	sent := 0     // output frames relayed to the client
	failures := 0 // consecutive worker switches with no progress
	for sent < len(frames) {
		resp, addr, err := rt.dispatch(r, key, body[offsets[sent]:], &failures)
		if err != nil {
			rt.fail(w, sent, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			// A deterministic application-level rejection: relay it on a
			// fresh stream, abort a committed one.
			if sent > 0 {
				resp.Body.Close()
				panic(http.ErrAbortHandler)
			}
			relay(w, resp, addr)
			return
		}
		if sent == 0 {
			relayHeader(w, resp, addr)
			// The upstream count covers the suffix; the client gets the
			// whole stream.
			w.Header().Set("X-Ipim-Stream-Frames", strconv.Itoa(len(frames)))
		}
		progressed := false
		br := bufio.NewReader(resp.Body)
		for sent < len(frames) {
			frame, ferr := pixel.ReadPGMFrame(br)
			if ferr != nil {
				break // torn or short upstream: fail over below
			}
			if _, werr := w.Write(frame); werr != nil {
				resp.Body.Close()
				return // client went away
			}
			rc.Flush()
			sent++
			progressed = true
			rt.metrics.framesRelayed.Inc()
		}
		resp.Body.Close()
		if sent < len(frames) {
			rt.failover(addr, fmt.Sprintf("died after %d/%d stream frame(s)", sent, len(frames)))
			if progressed {
				failures = 0
			} else if failures++; failures > rt.cfg.FailoverAttempts {
				rt.fail(w, sent, errors.New("no worker could finish the stream"))
				return
			}
		}
	}
	rt.metrics.streams.Inc()
}
