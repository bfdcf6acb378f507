// Command bench is the repository's end-to-end benchmark: seeded
// traffic through ipim-router → ipim-serve → the cycle simulator (and
// the simulator alone), reported end to end and per layer. See
// README.md for the workloads, metrics and how to read them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload serve-mix -seed 1 -seconds 10
//	bash bench/run.sh -workload all -seed 1 -trace 1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics BENCHMARK.json lists (its
// end_to_end metrics, or its per_layer metrics with -trace 1). The
// process exits non-zero when any response or simulated count is wrong.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ipim/internal/cliutil"
)

// options are the command-line settings of one invocation.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	traceDir     string
	jsonPath     string
	requests     int
	smoke        bool
	updateExpect bool
	expectPath   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "serve-mix", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (one process each)")
	seed := fs.String("seed", "1", "seed of image contents, body pools and request order (decimal or 0x hex)")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: after the measured run, re-run the same requests traced and report the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where -trace 1 writes spans.jsonl, cpu.pprof and records.jsonl, one directory per workload")
	fs.StringVar(&o.jsonPath, "json", "", "append every metric as a JSON record to this file")
	fs.IntVar(&o.requests, "requests", 0, "run exactly this many requests instead of -seconds (smoke runs)")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink the workloads (smallest compilable images, cheap 2-frame clips, no multi-stage kernels in sim-direct, short replays, one set-up): a quick check, not comparable with full runs")
	fs.BoolVar(&o.updateExpect, "update-expect", false, "sim-direct: record this run's simulated cycles and instructions in -expect (after a model change)")
	fs.StringVar(&o.expectPath, "expect", "bench/expect_sim_direct.json", "expectation file -update-expect rewrites")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	if o.seed, err = cliutil.Seed("seed", *seed); err != nil {
		return o, err
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("bad -trace %d (want 0 or 1)", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 && o.requests <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload in its own process, one after another.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(boolInt(o.trace)),
			"-trace-dir", o.traceDir, "-json", o.jsonPath, "-requests", strconv.Itoa(o.requests),
			"-expect", o.expectPath}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.updateExpect {
			args = append(args, "-update-expect")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	layer string // "e2e" or the module the number describes
	n     int    // samples behind the value
}

// result is everything one invocation measured.
type result struct {
	workload  string
	seed      uint64
	attempted int
	failed    int
	e2e       []metric // from the untraced run
	layers    []metric // from the traced re-run and the replay
}

func (r result) correct() bool { return r.failed == 0 }

// run executes one workload: prepare references, set up several times,
// measure untraced, and with -trace re-run traced and replay per layer.
// Failures are counted in the result and described on logw.
func run(o options, logw io.Writer) (result, error) {
	res := result{workload: o.workload, seed: o.seed}
	wl, err := newWorkload(o.workload, o.seed, o.smoke)
	if err != nil {
		return res, err
	}
	// Count-bound runs prepare only what they send; sim-direct always
	// warms a whole rotation, and the replay re-sends the first requests.
	prepN := o.requests
	if prepN > 0 && wl.direct {
		prepN = max(prepN, len(wl.firstUses(0)))
	}
	if prepN > 0 && o.trace {
		prepN = max(prepN, wl.replayN)
	}
	if err := prepare(wl, prepN); err != nil {
		return res, fmt.Errorf("references: %w", err)
	}

	// Set up at least three times, more while that stays under a second,
	// and report the median.
	var setupS []float64
	var e env
	for spent := 0.0; ; {
		start := time.Now()
		if e, err = setup(wl, o); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		setupS = append(setupS, d)
		spent += d
		if o.smoke || len(setupS) >= 9 || len(setupS) >= 3 && spent >= 1 {
			break
		}
		e.close()
	}

	limit := time.Duration(o.seconds * float64(time.Second))
	measured := drive(e, wl.round, limit, o.requests, nil)
	res.attempted, res.failed = len(measured.samples), measured.failed()
	logFailures(logw, measured)
	if d, ok := e.(*directEnv); ok {
		res.attempted += len(wl.firstUses(0))
		res.failed += len(d.coldErrs)
		for _, err := range d.coldErrs {
			fmt.Fprintln(logw, "set-up:", err)
		}
	}
	res.e2e = endToEnd(wl, measured, setupS)

	if o.trace {
		layers, attempted, failed, err := traced(wl, e, measured, o, logw)
		if err != nil {
			return res, err
		}
		res.layers = layers
		res.attempted += attempted
		res.failed += failed
	} else {
		e.close()
	}
	if d, ok := e.(*directEnv); ok && o.updateExpect {
		if err := d.writeExpect(o.expectPath); err != nil {
			return res, err
		}
	}
	res.e2e = append(res.e2e, metric{"peak_rss_mb", peakRSSMiB(), "MiB", "e2e", 1})
	res.e2e = append(res.e2e, metric{"fail_ratio", float64(res.failed) / float64(max(res.attempted, 1)), "ratio", "e2e", res.attempted})
	return res, nil
}

// setup starts the system under test and sends one warm-up request per
// distinct kernel the run will use.
func setup(wl *workload, o options) (env, error) {
	if wl.direct {
		return startDirect(wl, o.updateExpect)
	}
	e, err := startFleet(wl)
	if err != nil {
		return nil, err
	}
	if err := e.warm(o.requests); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// endToEnd computes the user-visible metrics of the untraced run.
func endToEnd(wl *workload, r pass, setupS []float64) []metric {
	n := len(r.samples)
	lat := r.latencies()
	out := []metric{
		{"setup_s", median(setupS), "s", "e2e", len(setupS)},
		{"req_per_s", r.perSecond(float64(n)), "req/s", "e2e", n},
		{"latency_p50_ms", percentile(lat, 50), "ms", "e2e", n},
		{"latency_p95_ms", percentile(lat, 95), "ms", "e2e", n},
		{"sim_minstr_per_s", r.perSecond(float64(r.issued())) / 1e6, "Minstr/s", "e2e", n},
	}
	if n >= 1000 {
		// The highest percentile with at least ten samples beyond it.
		out = append(out, metric{"latency_p99_ms", percentile(lat, 99), "ms", "e2e", n})
	}
	if wl.stream {
		var ttff, gaps []float64
		frames := 0
		for _, s := range r.samples {
			frames += len(s.frameAt)
			for k, t := range s.frameAt {
				if k == 0 {
					ttff = append(ttff, ms(t))
				} else {
					gaps = append(gaps, ms(t-s.frameAt[k-1]))
				}
			}
		}
		out = append(out,
			metric{"frames_per_s", r.perSecond(float64(frames)), "frames/s", "e2e", frames},
			metric{"ttff_p50_ms", percentile(ttff, 50), "ms", "e2e", len(ttff)},
			metric{"ttff_p90_ms", percentile(ttff, 90), "ms", "e2e", len(ttff)},
			metric{"frame_gap_p95_ms", percentile(gaps, 95), "ms", "e2e", len(gaps)})
	}
	return out
}

// traced re-runs the measured request sequence with spans and a CPU
// profile, closes the environment, replays the first requests layer by
// layer, and writes the trace files.
func traced(wl *workload, e env, measured pass, o options, logw io.Writer) (layers []metric, attempted, failed int, err error) {
	tr := newTracer(wl.name)
	he, isHTTP := e.(*httpEnv)
	var before, after map[string]promSeries
	if isHTTP {
		if before, err = he.scrape(tr); err != nil {
			e.close()
			return nil, 0, 0, err
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		e.close()
		return nil, 0, 0, err
	}
	again := drive(e, wl.round, 0, len(measured.samples), tr)
	pprof.StopCPUProfile()
	if isHTTP {
		after, err = he.scrape(tr)
	}
	e.close()
	if err != nil {
		return nil, 0, 0, err
	}
	attempted, failed = len(again.samples), again.failed()
	logFailures(logw, again)

	rp, err := replay(wl, tr)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("replay: %w", err)
	}
	attempted += rp.requests
	failed += rp.failed
	if rp.failed > 0 {
		fmt.Fprintf(logw, "replay: %d outputs differ from the reference\n", rp.failed)
	}
	shares, nSamples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cpu profile: %w", err)
	}

	if isHTTP {
		var mismatch error
		layers, mismatch = httpLayers(wl, again, rp, before, after)
		if mismatch != nil {
			fmt.Fprintln(logw, mismatch)
			failed++
		}
	} else {
		layers = directLayers(again)
	}
	layers = append(layers, simLayers(wl, rp)...)
	if wl.direct {
		layers = append(layers, perKernel(again)...)
	}
	for _, g := range cpuGroups {
		layers = append(layers, metric{"cpu." + g, shares[g], "share", "cpu", int(nSamples)})
	}
	overhead := measured.perSecond(float64(len(measured.samples))) / again.perSecond(float64(len(again.samples)))
	layers = append(layers, metric{"trace.overhead", overhead, "ratio", "bench", len(again.samples)})

	dir := filepath.Join(o.traceDir, wl.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if err := tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, 0, 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, 0, 0, err
	}
	return layers, attempted, failed, nil
}

// logFailures describes the first few failed requests of a run.
func logFailures(w io.Writer, r pass) {
	shown := 0
	for _, s := range r.samples {
		if s.err != nil && shown < 5 {
			fmt.Fprintf(w, "request %d: %v\n", s.idx, s.err)
			shown++
		}
	}
	if n := r.failed(); n > shown {
		fmt.Fprintf(w, "... %d failed requests in all\n", n)
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Metrics of the result line: BENCHMARK.json's end_to_end and
// per_layer lists, in that file's order.
var (
	resultEndToEnd = []string{"setup_s", "req_per_s", "latency_p50_ms", "sim_minstr_per_s", "peak_rss_mb"}
	resultPerLayer = []string{
		"fleet.pick_us", "fleet.router_share", "fleet.max_worker_share", "fleet.failovers",
		"serve.busy_share", "serve.queue_share", "serve.cache_hit_ratio",
		"pixel.decode_us", "pixel.encode_us", "compiler.compile_ms", "compiler.misses",
		"sim.run_ms", "sim.host_ns_per_instr", "sim.memo_hit_ratio", "sim.ff_share", "sim.cycles", "sim.issued",
		"cpu.vault", "cpu.engine", "cpu.isa", "cpu.dram", "cpu.noc", "cpu.cube", "cpu.compiler", "cpu.pixel",
		"cpu.serve", "cpu.fleet", "cpu.net_http", "cpu.gc", "cpu.other", "trace.overhead",
	}
)

// record is the repository's single benchmark record schema.
type record struct {
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Layer    string  `json:"layer"`
	Workload string  `json:"workload"`
	N        int     `json:"n"`
	Seed     uint64  `json:"seed"`
	Host     string  `json:"host"`
	Date     string  `json:"date"`
	Go       string  `json:"go"`
	Cmd      string  `json:"cmd"`
	Rev      string  `json:"rev"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metric table, appends the records to -json (and to
// the trace directory with -trace 1) and prints the result line.
func report(w io.Writer, o options, res result) error {
	all := append(append([]metric(nil), res.e2e...), res.layers...)
	host := hostDesc()
	date := time.Now().UTC().Format(time.RFC3339)
	cmd := strings.Join(os.Args, " ")
	var recs bytes.Buffer
	enc := json.NewEncoder(&recs)
	fmt.Fprintf(w, "workload %s  seed %d  host %s  go %s  rev %s\n", res.workload, res.seed, host, runtime.Version(), rev())
	fmt.Fprintf(w, "%-18s %-28s %16s  %-9s %s\n", "layer", "metric", "value", "unit", "n")
	for _, m := range all {
		fmt.Fprintf(w, "%-18s %-28s %16.6g  %-9s %d\n", m.layer, m.name, m.value, m.unit, m.n)
		if err := enc.Encode(record{m.name, m.value, m.unit, m.layer, res.workload, m.n, res.seed, host, date, runtime.Version(), cmd, rev()}); err != nil {
			return err
		}
	}
	if o.jsonPath != "" {
		if err := appendFile(o.jsonPath, recs.Bytes()); err != nil {
			return err
		}
	}
	names := resultEndToEnd
	if o.trace {
		names = resultPerLayer
		if err := appendFile(filepath.Join(o.traceDir, res.workload, "records.jsonl"), recs.Bytes()); err != nil {
			return err
		}
	}
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]resultItem{}}
	for _, name := range names {
		for _, m := range all {
			if m.name == name {
				line.Metrics[name] = resultItem{m.value, m.unit}
			}
		}
		if _, ok := line.Metrics[name]; !ok {
			return fmt.Errorf("workload %s did not measure %s", res.workload, name)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostDesc names the CPU model and count, the host facts that move the
// numbers.
func hostDesc() string {
	model := runtime.GOARCH
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s x%d", model, runtime.NumCPU())
}

// rev is the git revision the binary was built from, when the build
// could stamp one.
func rev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		r, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if len(r) > 12 {
			r = r[:12]
		}
		if r != "" && dirty {
			r += "+dirty"
		}
		if r != "" {
			return r
		}
	}
	return "unknown"
}
