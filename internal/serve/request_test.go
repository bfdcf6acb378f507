package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ipim"
)

// TestRunEndpointsRejectAlike: the three run endpoints share one parse
// step, so a request they all refuse gets the same status and message
// from each, and the two image endpoints agree on the workload, opts
// and mode parameters /v1/simb does not take.
func TestRunEndpointsRejectAlike(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxBodyBytes = 1 << 10 })
	pgm := pgmBody(t, 32, 16)
	all := []string{"/v1/process", "/v1/stream", "/v1/simb"}
	image := all[:2]
	cases := []struct {
		name   string
		method string
		query  string
		body   []byte
		routes []string
		want   int
	}{
		{"get", http.MethodGet, "workload=Brighten", nil, all, http.StatusMethodNotAllowed},
		{"bad timeout", http.MethodPost, "workload=Brighten&timeout=soon", pgm, all, http.StatusBadRequest},
		{"bad max_cycles", http.MethodPost, "workload=Brighten&max_cycles=-3", pgm, all, http.StatusBadRequest},
		{"body too large", http.MethodPost, "workload=Brighten", bytes.Repeat(pgm, 3), all, http.StatusRequestEntityTooLarge},
		{"missing workload", http.MethodPost, "", pgm, image, http.StatusBadRequest},
		{"unknown workload", http.MethodPost, "workload=Nope", pgm, image, http.StatusNotFound},
		{"unknown opts", http.MethodPost, "workload=Brighten&opts=nah", pgm, image, http.StatusBadRequest},
		{"bad mode", http.MethodPost, "workload=Brighten&mode=warp", pgm, image, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for i, route := range tc.routes {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(tc.method, route+"?"+tc.query, bytes.NewReader(tc.body)))
				if rec.Code != tc.want {
					t.Errorf("%s: status %d, want %d (%s)", route, rec.Code, tc.want, rec.Body)
				}
				if i == 0 {
					first = rec.Body.String()
				} else if got := rec.Body.String(); got != first {
					t.Errorf("%s answers %q, %s answers %q", route, got, tc.routes[0], first)
				}
			}
		})
	}
}

// TestImageEndpointsShareHeaders: /v1/process and /v1/stream describe
// the artifact they ran in the same headers, and the stream's fetch of
// the artifact the process request compiled is a cache hit.
func TestImageEndpointsShareHeaders(t *testing.T) {
	s := testServer(t, nil)
	pgm := pgmBody(t, 32, 16)
	var got []http.Header
	for _, route := range []string{"/v1/process", "/v1/stream"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route+"?workload=Brighten&opts=baseline1&mode=functional", bytes.NewReader(pgm)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, rec.Code, rec.Body)
		}
		got = append(got, rec.Header())
	}
	want := map[string]string{"X-Ipim-Workload": "Brighten", "X-Ipim-Config": "baseline1",
		"X-Ipim-Image": "32x16", "X-Ipim-Schedule": "default", "X-Ipim-Mode": "functional"}
	for name, v := range want {
		for i, h := range got {
			if h.Get(name) != v {
				t.Errorf("response %d: %s = %q, want %q", i, name, h.Get(name), v)
			}
		}
	}
	if a, b := got[0].Get("X-Ipim-Cache"), got[1].Get("X-Ipim-Cache"); a != "miss" || b != "hit" {
		t.Errorf("X-Ipim-Cache = %q then %q, want miss then hit", a, b)
	}
}

// FuzzRunRequest sends a route, a raw query string and a body through
// the run endpoints' shared parse step and the route's body decoding.
// The pool's one worker is held busy and the queue has no slot, so a
// request that gets as far as submitting a run is answered 429. The
// properties: no input panics; every other answer is a 400, 404, 405
// or 413 rejection; and every request the parse step admits has a
// timeout of at most 5 minutes, a budget within Config.MaxCycles and a
// cycle or functional mode.
func FuzzRunRequest(f *testing.F) {
	const maxCycles = 1 << 20
	s, err := New(Config{
		Machine:      ipim.TinyConfig(),
		Workers:      1,
		QueueCap:     -1, // no queue slot: only a free worker takes a job
		CacheCap:     4,
		MaxCycles:    maxCycles,
		MaxBodyBytes: 4 << 10,
	})
	if err != nil {
		f.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	hold := func(context.Context, *ipim.Machine) error {
		close(started)
		<-release
		return nil
	}
	go func() {
		// With no queue slot, a job is taken only once the worker waits
		// for one, which it may not do yet.
		for errors.Is(s.pool.submit(context.Background(), hold), errQueueFull) {
			time.Sleep(time.Millisecond)
		}
	}()
	<-started
	for s.pool.queueDepth() != 1 { // the submitter counts the job after handing it over
		time.Sleep(time.Millisecond)
	}
	f.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	var pgm bytes.Buffer
	if err := ipim.WritePGM(&pgm, ipim.Synth(32, 16, 7)); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), "workload=Brighten", pgm.Bytes())
	f.Add(uint8(0), "workload=Histogram&mode=functional&timeout=1000h", pgm.Bytes())
	f.Add(uint8(1), "workload=GaussianBlur&max_cycles=99999999999", append(pgm.Bytes(), pgm.Bytes()...))
	f.Add(uint8(1), "workload=Histogram", pgm.Bytes())
	f.Add(uint8(2), "timeout=1ms&max_cycles=5", []byte(simbFinite))
	f.Add(uint8(2), "timeout=-1s", []byte("sync\n"))
	f.Add(uint8(3), "workload=Brighten&opts=baseline1", pgm.Bytes())
	f.Add(uint8(0), "workload=%zz&mode=cycle;", []byte("P6\n1 1\n255\n\x00"))

	routes := []string{"/v1/process", "/v1/stream", "/v1/simb"}
	methods := []string{http.MethodPost, http.MethodGet, http.MethodPut}
	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		path := routes[int(route)%len(routes)]
		method := methods[int(route)/len(routes)%len(methods)]
		request := func() *http.Request {
			r := httptest.NewRequest(method, path, bytes.NewReader(body))
			r.URL.RawQuery = query
			return r
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, request())
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
		case http.StatusTooManyRequests:
			req, ok := s.parseRun(httptest.NewRecorder(), request())
			if !ok {
				t.Fatalf("%s %s?%s reached the pool but the parse step refuses it", method, path, query)
			}
			if req.timeout <= 0 || req.timeout > 5*time.Minute {
				t.Errorf("admitted timeout %s, want (0, 5m]", req.timeout)
			}
			if req.run.MaxCycles <= 0 || req.run.MaxCycles > maxCycles {
				t.Errorf("admitted budget %d, want (0, %d]", req.run.MaxCycles, maxCycles)
			}
			if req.run.Mode != ipim.CycleMode && req.run.Mode != ipim.FunctionalMode {
				t.Errorf("admitted mode %v", req.run.Mode)
			}
		default:
			t.Fatalf("%s %s?%s: status %d (%s), want a 400/404/405/413 rejection or 429 from the held pool",
				method, path, query, rec.Code, rec.Body)
		}
		if d := s.pool.queueDepth(); d != 1 {
			t.Fatalf("pool holds %d jobs, want only the one holding the worker", d)
		}
	})
}
