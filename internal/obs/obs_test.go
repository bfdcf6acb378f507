package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	reg := &Registry{}
	req := reg.CounterVec("x_requests_total", "Requests.", "route", "status")
	lat := reg.HistogramVec("x_seconds", "Latency.", []float64{0.5, 2}, "route")
	c := reg.Counter("x_events_total", "Events.")
	e := reg.FloatCounter("x_energy_total", "Energy.")
	reg.Func(TypeGauge, "x_depth", "Depth.", func() int64 { return 3 })
	reg.FloatFunc(TypeGauge, "x_ratio", "Ratio.", func() float64 { return 1.5 })
	reg.Samples(TypeGauge, "x_workers", "Workers.", "state", func() []Sample {
		return SortedSamples(map[string]int{"ready": 2, "down": 1})
	})

	req.With("/b", StatusLabel(200)).Inc()
	req.With("/a", StatusLabel(404)).Add(2)
	req.With("/a", StatusLabel(200)).Inc()
	lat.With("/a").Observe(0.25)
	lat.With("/a").Observe(1)
	lat.With("/a").Observe(9)
	c.Add(12345678)
	e.Add(8.8e6)

	var b strings.Builder
	reg.Write(&b)
	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total{route="/a",status="200"} 1
x_requests_total{route="/a",status="404"} 2
x_requests_total{route="/b",status="200"} 1
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{route="/a",le="0.5"} 1
x_seconds_bucket{route="/a",le="2"} 2
x_seconds_bucket{route="/a",le="+Inf"} 3
x_seconds_sum{route="/a"} 10.25
x_seconds_count{route="/a"} 3
# HELP x_events_total Events.
# TYPE x_events_total counter
x_events_total 12345678
# HELP x_energy_total Energy.
# TYPE x_energy_total counter
x_energy_total 8.8e+06
# HELP x_depth Depth.
# TYPE x_depth gauge
x_depth 3
# HELP x_ratio Ratio.
# TYPE x_ratio gauge
x_ratio 1.5
# HELP x_workers Workers.
# TYPE x_workers gauge
x_workers{state="down"} 1
x_workers{state="ready"} 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestObserveDoesNotAllocate pins the per-request cost: once a label set
// exists, counting and observing it allocates nothing.
func TestObserveDoesNotAllocate(t *testing.T) {
	reg := &Registry{}
	req := reg.CounterVec("x_requests_total", "Requests.", "route", "status")
	lat := reg.HistogramVec("x_seconds", "Latency.", []float64{0.001, 0.1, 10}, "route")
	req.With("/v1/process", StatusLabel(200)).Inc()
	lat.With("/v1/process").Observe(0.01)
	allocs := testing.AllocsPerRun(1000, func() {
		req.With("/v1/process", StatusLabel(200)).Inc()
		lat.With("/v1/process").Observe(0.01)
	})
	if allocs != 0 {
		t.Fatalf("observe path allocates %v times per request, want 0", allocs)
	}
}

func TestConcurrentObserveAndWrite(t *testing.T) {
	reg := &Registry{}
	req := reg.CounterVec("x_requests_total", "Requests.", "route")
	lat := reg.HistogramVec("x_seconds", "Latency.", []float64{1}, "route")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				route := []string{"/a", "/b", "/c"}[i%3]
				req.With(route).Inc()
				lat.With(route).Observe(0.5)
				reg.Write(&strings.Builder{})
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	reg.Write(&b)
	if !strings.Contains(b.String(), `x_seconds_count{route="/a"} 136`) {
		t.Errorf("lost observations:\n%s", b.String())
	}
}

func TestStatusRecorder(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.WriteHeader(http.StatusOK) // superfluous: the first status stands
		w.Write([]byte("hello"))
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("flush through the recorder: %v", err)
		}
	})
	rec := NewStatusRecorder(httptest.NewRecorder())
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Status != http.StatusTeapot || rec.Bytes != 5 {
		t.Fatalf("recorded status %d, %d bytes; want 418, 5", rec.Status, rec.Bytes)
	}
	if !rec.ResponseWriter.(*httptest.ResponseRecorder).Flushed {
		t.Error("Flush did not reach the underlying writer")
	}

	rec = NewStatusRecorder(httptest.NewRecorder())
	rec.Write([]byte("x"))
	if rec.Status != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", rec.Status)
	}
	if StatusLabel(499) != "499" || StatusLabel(42) != "42" {
		t.Error("StatusLabel does not print the code")
	}
}
