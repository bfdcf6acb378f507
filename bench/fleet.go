package main

// The HTTP environment: an in-process fleet.Router and two serve.Server
// workers on loopback, the closed-loop client that drives them, and the
// /metrics scrapes the per-layer numbers are derived from.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ipim"
	"ipim/internal/fleet"
	"ipim/internal/serve"
)

// httpEnv is one running fleet.
type httpEnv struct {
	wl        *workload
	routerURL string
	workerURL []string // real loopback URLs, for scrapes
	router    *fleet.Router
	servers   []*serve.Server
	listeners []*http.Server
	client    *http.Client // benchmark clients -> router
	upstream  *http.Client // router -> workers
}

// startFleet starts the router and both workers, waits until both are
// in the ring, and returns the environment.
func startFleet(wl *workload) (*httpEnv, error) {
	e := &httpEnv{wl: wl}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	// The workers advertise the fixed names in workerAddrs; this dialer
	// resolves them to the loopback ports they really listen on.
	real := map[string]string{}
	dialer := &net.Dialer{}
	e.upstream = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if r, ok := real[addr]; ok {
				addr = r
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	e.router = fleet.New(fleet.Config{Client: e.upstream})
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.routerURL = "http://" + rl.Addr().String()
	e.serve(rl, e.router)
	for _, adv := range workerAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		real[strings.TrimPrefix(adv, "http://")+":80"] = ln.Addr().String()
		s, err := serve.New(serve.Config{
			Machine:            ipim.OneVaultConfig(),
			Workers:            1,
			MachineParallelism: 1,
			CacheCap:           8,
			RouterURL:          e.routerURL,
			AdvertiseAddr:      adv,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		e.servers = append(e.servers, s)
		e.workerURL = append(e.workerURL, "http://"+ln.Addr().String())
		e.serve(ln, s)
	}
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if n, err := e.readyWorkers(); err == nil && n == len(workerAddrs) {
			break
		}
		if time.Now().After(deadline) {
			return nil, errors.New("workers did not register with the router within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ok = true
	return e, nil
}

// serve serves h on ln until close.
func (e *httpEnv) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	e.listeners = append(e.listeners, srv)
	go srv.Serve(ln)
}

// readyWorkers counts the workers the router has in its ring.
func (e *httpEnv) readyWorkers() (int, error) {
	resp, err := e.client.Get(e.routerURL + "/fleet/workers")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var list struct {
		Workers []fleet.WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, err
	}
	n := 0
	for _, w := range list.Workers {
		if w.State == fleet.StateReady {
			n++
		}
	}
	return n, nil
}

// close drains the workers (their final beat reaches the still-running
// router), then closes every listener and connection and stops the
// router. No request is in flight by then, so nothing is cut short; a
// graceful http.Server.Shutdown would instead wait up to 5s for any
// connection a transport dialed but never used. Safe on a partially
// started environment.
func (e *httpEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range e.servers {
		s.Shutdown(ctx)
	}
	for _, srv := range e.listeners {
		srv.Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, c := range []*http.Client{e.client, e.upstream} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// clients is the closed loop's connection count: one per CPU.
func (e *httpEnv) clients() int { return runtime.NumCPU() }

// do sends the i-th request of the sequence through the router, reads
// the whole response and checks it against the body's reference.
func (e *httpEnv) do(i int, tr *tracer) (s sample) {
	b := e.wl.at(i)
	s = sample{idx: i, body: b}
	s.start = time.Now()
	defer func() {
		s.end = time.Now()
		tr.add(fmt.Sprintf("r%d", i), "client.request", "", s.start, s.end)
		for k, t := range s.frameAt {
			tr.add(fmt.Sprintf("r%d", i), fmt.Sprintf("client.frame.%d", k), "client.request", s.start, s.start.Add(t))
		}
	}()
	url := fmt.Sprintf("%s%s?%s", e.routerURL, e.wl.path(), e.wl.query(b))
	resp, err := e.client.Post(url, "application/octet-stream", bytes.NewReader(b.data))
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		s.err = fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
		return s
	}
	s.hit = resp.Header.Get("X-Ipim-Cache") == "hit"
	h := sha256.New()
	if e.wl.stream {
		// Read one output frame at a time so the time to each frame's
		// last byte is known.
		br := bufio.NewReader(resp.Body)
		for _, n := range b.frameLens {
			frame := make([]byte, n)
			if _, err := io.ReadFull(br, frame); err != nil {
				s.err = fmt.Errorf("%s: stream frame %d: %w", url, len(s.frameAt), err)
				return s
			}
			h.Write(frame)
			s.frameAt = append(s.frameAt, time.Since(s.start))
		}
		if extra, _ := io.Copy(io.Discard, br); extra > 0 {
			s.err = fmt.Errorf("%s: %d bytes after the last expected frame", url, extra)
			return s
		}
	} else if _, err := io.Copy(h, resp.Body); err != nil {
		s.err = fmt.Errorf("%s: reading response: %w", url, err)
		return s
	}
	if got := h.Sum(nil); !bytes.Equal(got, b.want[:]) {
		s.err = fmt.Errorf("%s: response SHA-256 %x differs from the functional reference %x", url, got[:8], b.want[:8])
		return s
	}
	if v := resp.Header.Get("X-Ipim-Instructions"); v != "" && v != strconv.FormatInt(b.issued, 10) {
		s.err = fmt.Errorf("%s: X-Ipim-Instructions %s, reference issued %d", url, v, b.issued)
		return s
	}
	s.issued = b.issued
	return s
}

// warm sends one request per distinct kernel of the first n requests
// (every kernel when n <= 0), one client per CPU, and returns every
// error.
func (e *httpEnv) warm(n int) error {
	idx := e.wl.firstUses(n)
	errs := make(chan error, len(idx))
	sem := make(chan struct{}, e.clients())
	for _, i := range idx {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem }()
			errs <- e.do(i, nil).err
		}(i)
	}
	var err error
	for range idx {
		err = errors.Join(err, <-errs)
	}
	return err
}

// scrape reads every /metrics page of the fleet, keyed "router" or
// "worker<i>".
func (e *httpEnv) scrape(tr *tracer) (map[string]promSeries, error) {
	pages := map[string]string{"router": e.routerURL}
	for i, u := range e.workerURL {
		pages[fmt.Sprintf("worker%d", i)] = u
	}
	out := map[string]promSeries{}
	for name, u := range pages {
		start := time.Now()
		series, err := scrapeMetrics(e.client, u+"/metrics")
		tr.add("metrics", "metrics.scrape."+name, "", start, time.Now())
		if err != nil {
			return nil, err
		}
		out[name] = series
	}
	return out, nil
}

// promSeries is one parsed Prometheus text page: series (name plus
// labels, as written) to value.
type promSeries map[string]float64

func scrapeMetrics(c *http.Client, url string) (promSeries, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSeries{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad sample line %q", url, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
