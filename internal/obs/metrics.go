// Package obs is the observability plumbing ipim-serve and ipim-router
// share: a small Prometheus registry of counter, gauge and histogram
// families rendered in the text exposition format, and the
// status-recording http.ResponseWriter their access logs and request
// counters read. It is stdlib-only by design (the repository takes no
// dependencies); the shapes follow the Prometheus conventions so a real
// scraper ingests them unchanged.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Type is a family's Prometheus metric type, as its TYPE line prints it.
type Type string

// The metric types a caller-sampled family can take; histograms are
// only built with HistogramVec.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	typeHistogram Type = "histogram"
)

// Registry is an ordered set of metric families. Families render in
// registration order, each with its HELP and TYPE lines even before it
// has a series. Register every family before the first render; the
// values themselves are safe to update and render concurrently.
type Registry struct {
	fams []func(w io.Writer)
}

// add registers a family whose samples write renders.
func (r *Registry) add(typ Type, name, help string, write func(w io.Writer)) {
	r.fams = append(r.fams, func(w io.Writer) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		write(w)
	})
}

// Write renders every family in the Prometheus text format.
func (r *Registry) Write(w io.Writer) {
	for _, write := range r.fams {
		write(w)
	}
}

// ServeHTTP serves the exposition (the /metrics endpoint).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Write(w)
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// value returns the current count.
func (c *Counter) value() int64 { return c.v.Load() }

// Counter registers an unlabeled integer counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.Func(TypeCounter, name, help, c.value)
	return c
}

// FloatCounter is a monotonically increasing real number, rendered with
// %g.
type FloatCounter struct {
	mu sync.Mutex
	v  float64
}

// Add adds x, which must not be negative.
func (c *FloatCounter) Add(x float64) {
	c.mu.Lock()
	c.v += x
	c.mu.Unlock()
}

func (c *FloatCounter) value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// FloatCounter registers an unlabeled real-valued counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	c := new(FloatCounter)
	r.FloatFunc(TypeCounter, name, help, c.value)
	return c
}

// Func registers an unlabeled integer family whose value f samples at
// render time, for state another component already keeps.
func (r *Registry) Func(typ Type, name, help string, f func() int64) {
	r.add(typ, name, help, func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, f())
	})
}

// FloatFunc is Func for a real value, rendered with %g.
func (r *Registry) FloatFunc(typ Type, name, help string, f func() float64) {
	r.add(typ, name, help, func(w io.Writer) {
		fmt.Fprintf(w, "%s %g\n", name, f())
	})
}

// Sample is one series of a Samples family: the value of its single
// label, and the series value.
type Sample struct {
	Label string
	Value int64
}

// Samples registers a family with one label whose series f lists at
// render time, in the order they render.
func (r *Registry) Samples(typ Type, name, help, label string, f func() []Sample) {
	r.add(typ, name, help, func(w io.Writer) {
		for _, s := range f() {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, s.Label, s.Value)
		}
	})
}

// SortedSamples lists a label→value map as samples ordered by label.
func SortedSamples(m map[string]int) []Sample {
	out := make([]Sample, 0, len(m))
	for k, v := range m {
		out = append(out, Sample{Label: k, Value: int64(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ v vec[Counter] }

// CounterVec registers an integer counter family with one or more
// labels. Its series render sorted by label values.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{v: vec[Counter]{labels: labels}}
	r.add(TypeCounter, name, help, func(w io.Writer) {
		for _, s := range cv.v.sorted() {
			fmt.Fprintf(w, "%s{%s} %d\n", name, s.pairs, s.m.value())
		}
	})
	return cv
}

// With returns the counter for one label-value tuple, creating it on
// first use. It does not allocate once the series exists.
func (cv *CounterVec) With(values ...string) *Counter { return cv.v.with(values, nil) }

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []int64   // per bucket, last entry the +Inf overflow
	sum    float64
	count  int64
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.counts[sort.SearchFloat64s(h.bounds, x)]++
	h.sum += x
	h.count++
	h.mu.Unlock()
}

func (h *Histogram) write(w io.Writer, name, pairs string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		// The shortest exact decimal, as Prometheus clients print bounds.
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, pairs, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, pairs, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, pairs, h.sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, pairs, h.count)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	v      vec[Histogram]
	bounds []float64
}

// HistogramVec registers a histogram family with one or more labels and
// the given ascending bucket bounds. Its series render sorted by label
// values.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	hv := &HistogramVec{v: vec[Histogram]{labels: labels}, bounds: bounds}
	r.add(typeHistogram, name, help, func(w io.Writer) {
		for _, s := range hv.v.sorted() {
			s.m.write(w, name, s.pairs)
		}
	})
	return hv
}

// With returns the histogram for one label-value tuple, creating it on
// first use. It does not allocate once the series exists.
func (hv *HistogramVec) With(values ...string) *Histogram {
	return hv.v.with(values, func(h *Histogram) {
		h.bounds = hv.bounds
		h.counts = make([]int64, len(hv.bounds)+1)
	})
}

// vec maps label-value tuples to the series of one labeled family.
type vec[T any] struct {
	labels []string
	mu     sync.Mutex
	series map[string]*series[T] // keyed by the values joined with 0xff
}

type series[T any] struct {
	values []string
	pairs  string // rendered label pairs: name="value",...
	m      T
}

func (v *vec[T]) with(values []string, init func(*T)) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for labels %q", len(values), v.labels))
	}
	// The key is built in a stack buffer, and a map index by string(key)
	// does not copy it: the lookup of an existing series is
	// allocation-free.
	var buf [64]byte
	key := buf[:0]
	for _, s := range values {
		key = append(key, s...)
		key = append(key, 0xff) // cannot occur in UTF-8 label values
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.series[string(key)]; ok {
		return &s.m
	}
	s := &series[T]{values: slices.Clone(values)}
	pairs := make([]string, len(values))
	for i, l := range v.labels {
		pairs[i] = fmt.Sprintf("%s=%q", l, values[i])
	}
	s.pairs = strings.Join(pairs, ",")
	if init != nil {
		init(&s.m)
	}
	if v.series == nil {
		v.series = map[string]*series[T]{}
	}
	v.series[string(key)] = s
	return &s.m
}

// sorted returns the series ordered by label values.
func (v *vec[T]) sorted() []*series[T] {
	v.mu.Lock()
	out := make([]*series[T], 0, len(v.series))
	for _, s := range v.series {
		out = append(out, s)
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i].values, out[j].values) < 0 })
	return out
}
