package main

// Per-layer numbers of a traced run: /metrics deltas across the traced
// re-run, a replay of the workload's first requests through each
// layer's public functions, and the CPU profile grouped by package.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"ipim"
	"ipim/internal/fleet"
	"ipim/internal/pixel"
)

// replayed is what the layer replay measured over the first
// wl.replayN requests.
type replayed struct {
	requests int
	pickUS   float64 // mean Registry.Pick per request
	decodeUS float64 // mean netpbm decode per request
	encodeUS float64 // mean netpbm encode per request with image output
	splitUS  float64 // mean SplitPGMFrames per stream request
	compiles int
	compile  float64 // mean ipim.Compile, ms
	runNS    int64   // total simulator time
	issued   int64
	cycles   int64
	memoHits int64
	memoMiss int64
	ffCycles int64
	failed   int // replay outputs that differ from the reference
}

// replay re-executes the first wl.replayN requests layer by layer,
// with no HTTP and no concurrency: the fleet's ring lookup, netpbm
// decode, compilation, the simulator on the machine the router would
// pick, and netpbm encode.
func replay(wl *workload, tr *tracer) (replayed, error) {
	r := replayed{requests: wl.replayN}
	var reqs []*body
	for i := 0; i < wl.replayN; i++ {
		reqs = append(reqs, wl.at(i))
	}

	// fleet: Registry.Pick on each request's routing key, repeated until
	// the loop is long enough to time.
	reg := fleet.NewRegistry(0, time.Hour)
	for _, a := range workerAddrs {
		if err := reg.Beat(a, fleet.StateReady); err != nil {
			return r, err
		}
	}
	var keys []string
	for _, b := range reqs {
		keys = append(keys, b.kern.routingKey())
	}
	picks := 0
	d := tr.time("replay", "replay.fleet.pick", "", func() {
		for picks < 200000 {
			for _, k := range keys {
				reg.Pick(k)
			}
			picks += len(keys)
		}
	})
	r.pickUS = us(d) / float64(picks)

	// compiler: one ipim.Compile per distinct kernel.
	arts := map[kernel]*ipim.Artifact{}
	var compileTotal time.Duration
	for _, b := range reqs {
		if arts[b.kern] != nil {
			continue
		}
		var err error
		compileTotal += tr.time("replay", "replay.compiler.compile", "", func() {
			arts[b.kern], err = b.kern.compile()
		})
		if err != nil {
			return r, err
		}
	}
	r.compiles = len(arts)
	r.compile = ms(compileTotal) / float64(r.compiles)

	// pixel decode: the request bodies (sim-direct has none; its images
	// are encoded untimed and decoded, the cost its inputs would have).
	inputs := make([][]*ipim.Image, len(reqs))
	var decode, split time.Duration
	splits := 0
	for i, b := range reqs {
		data := b.data
		if wl.direct {
			var buf bytes.Buffer
			if err := ipim.WritePGM(&buf, b.planes[0]); err != nil {
				return r, err
			}
			data = buf.Bytes()
		}
		if b.frames > 0 {
			split += tr.time("replay", "replay.pixel.split", "", func() { pixel.SplitPGMFrames(data, 0) })
			splits++
		}
		var err error
		decode += tr.time("replay", "replay.pixel.decode", "", func() {
			inputs[i], err = decodeBody(data, b.ppm, b.frames)
		})
		if err != nil {
			return r, err
		}
		if wl.direct {
			inputs[i] = b.planes
		}
	}
	r.decodeUS = us(decode) / float64(len(reqs))
	if splits > 0 {
		r.splitUS = us(split) / float64(splits)
	}

	// simulator: each request on the machine its routing key maps to
	// (sim-direct has one machine), in the workload's mode.
	machines := make([]*ipim.Machine, len(workerAddrs))
	if wl.direct {
		machines = machines[:1]
	}
	for i := range machines {
		m, err := ipim.NewMachine(ipim.OneVaultConfig())
		if err != nil {
			return r, err
		}
		m.SetParallelism(1)
		machines[i] = m
	}
	owner := placement()
	var encode time.Duration
	encodes := 0
	for i, b := range reqs {
		m := machines[0]
		if !wl.direct {
			m = machines[owner(b.kern)]
		}
		h0, m0 := m.TimingMemoStats()
		ff0 := m.FastForwardedCycles()
		var outs []*ipim.Image
		var bins []int32
		for _, p := range inputs[i] {
			var out *ipim.Image
			var st ipim.Stats
			var err error
			d := tr.time(fmt.Sprintf("replay-r%d", i), "replay.sim.run", "", func() {
				out, bins, st, err = runPlane(m, arts[b.kern], p, wl.mode)
			})
			if err != nil {
				return r, fmt.Errorf("replay %s: %w", b.kern.name, err)
			}
			r.runNS += d.Nanoseconds()
			r.issued += st.Issued
			r.cycles += st.Cycles
			if bins != nil {
				break // histograms run the first plane only
			}
			outs = append(outs, out)
		}
		h1, m1 := m.TimingMemoStats()
		r.memoHits += h1 - h0
		r.memoMiss += m1 - m0
		r.ffCycles += m.FastForwardedCycles() - ff0

		// pixel encode, and the replayed output against the reference.
		if wl.direct {
			var out0 *ipim.Image
			if len(outs) > 0 {
				out0 = outs[0]
			}
			if hashBinsOrImage(out0, bins) != b.want {
				r.failed++
			}
		}
		if bins != nil {
			continue // bins go out as JSON, not netpbm
		}
		var buf bytes.Buffer
		var err error
		encode += tr.time("replay", "replay.pixel.encode", "", func() { err = encodeImages(&buf, outs, b.ppm) })
		if err != nil {
			return r, err
		}
		encodes++
		if !wl.direct && sha256.Sum256(buf.Bytes()) != b.want {
			r.failed++
		}
	}
	if encodes > 0 {
		r.encodeUS = us(encode) / float64(encodes)
	}
	return r, nil
}

// httpLayers derives the fleet and serve numbers of the traced re-run
// from the /metrics deltas around it. It also cross-checks the cache
// hits the clients saw against the servers' counters.
func httpLayers(wl *workload, r pass, rp replayed, before, after map[string]promSeries) ([]metric, error) {
	n := len(r.samples)
	delta := func(page, series string) float64 { return after[page][series] - before[page][series] }
	sum := func(series string) float64 {
		t := 0.0
		for i := range workerAddrs {
			t += delta(fmt.Sprintf("worker%d", i), series)
		}
		return t
	}
	route := fmt.Sprintf("{route=%q}", wl.path())
	handlerMS := 1000 * sum("ipim_request_seconds_sum"+route) / sum("ipim_request_seconds_count"+route)
	clientMS := mean(r.latencies())
	busyS := sum("ipim_worker_busy_seconds")
	busyMS := 1000 * busyS / float64(n)
	hits, misses := sum("ipim_artifact_cache_hits_total"), sum("ipim_artifact_cache_misses_total")

	// Time a request spends in the handler but neither on a machine,
	// decoding or encoding outside it, nor compiling: the pool queue.
	pixelMS := rp.decodeUS / 1000
	if !wl.stream { // streams encode inside the pooled job
		pixelMS += rp.encodeUS / 1000
	}
	queueMS := handlerMS - busyMS - pixelMS - rp.compile*misses/float64(n)

	var perWorker []float64
	total := 0.0
	for i := range workerAddrs {
		v := delta(fmt.Sprintf("worker%d", i), fmt.Sprintf("ipim_requests_total{route=%q,status=\"200\"}", wl.path()))
		perWorker = append(perWorker, v)
		total += v
	}
	maxShare := 0.0
	for _, v := range perWorker {
		maxShare = max(maxShare, v/total)
	}
	headerHits := 0
	for _, s := range r.samples {
		headerHits += boolInt(s.hit)
	}

	var mismatch error
	if int(hits) != headerHits || int(hits+misses) != n {
		mismatch = fmt.Errorf("cache: clients saw %d hits in %d requests, servers counted %.0f hits and %.0f misses", headerHits, n, hits, misses)
	}
	return []metric{
		{"fleet.router_overhead_ms", clientMS - handlerMS, "ms", "internal/fleet", n},
		{"fleet.router_share", (clientMS - handlerMS) / clientMS, "share", "internal/fleet", n},
		{"fleet.max_worker_share", maxShare, "share", "internal/fleet", n},
		{"fleet.failovers", delta("router", "ipim_router_failovers_total"), "count", "internal/fleet", n},
		{"serve.handler_ms", handlerMS, "ms", "internal/serve", n},
		{"serve.busy_share", busyS / (r.wall.Seconds() * float64(len(workerAddrs))), "share", "internal/serve", n},
		{"serve.queue_wait_ms", queueMS, "ms", "internal/serve", n},
		{"serve.queue_share", queueMS / clientMS, "share", "internal/serve", n},
		{"serve.cache_hit_ratio", float64(headerHits) / float64(n), "ratio", "internal/serve", n},
		{"compiler.misses", misses, "count", "internal/compiler", n},
	}, mismatch
}

// directLayers is httpLayers for sim-direct, where there is no router,
// no queue and one machine, and every artifact was compiled in set-up.
func directLayers(r pass) []metric {
	n := len(r.samples)
	var busy time.Duration
	for _, s := range r.samples {
		busy += s.end.Sub(s.start)
	}
	return []metric{
		{"fleet.router_share", 0, "share", "internal/fleet", n},
		{"fleet.max_worker_share", 1, "share", "internal/fleet", n},
		{"fleet.failovers", 0, "count", "internal/fleet", n},
		{"serve.busy_share", busy.Seconds() / r.wall.Seconds(), "share", "internal/serve", n},
		{"serve.queue_share", 0, "share", "internal/serve", n},
		{"serve.cache_hit_ratio", 1, "ratio", "internal/serve", n},
		{"compiler.misses", 0, "count", "internal/compiler", n},
	}
}

// simLayers reports the replay's pixel, compiler and simulator numbers.
func simLayers(wl *workload, rp replayed) []metric {
	n := rp.requests
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out := []metric{
		{"fleet.pick_us", rp.pickUS, "us", "internal/fleet", n},
		{"pixel.decode_us", rp.decodeUS, "us", "internal/pixel", n},
		{"pixel.encode_us", rp.encodeUS, "us", "internal/pixel", n},
		{"compiler.compile_ms", rp.compile, "ms", "internal/compiler", rp.compiles},
		{"sim.run_ms", float64(rp.runNS) / 1e6 / float64(n), "ms", "internal/cube", n},
		{"sim.host_ns_per_instr", ratio(rp.runNS, rp.issued), "ns", "internal/cube", n},
		{"sim.memo_hit_ratio", ratio(rp.memoHits, rp.memoHits+rp.memoMiss), "ratio", "internal/vault", n},
		{"sim.ff_share", ratio(rp.ffCycles, rp.cycles), "share", "internal/vault", n},
		{"sim.cycles", float64(rp.cycles), "count", "internal/cube", n},
		{"sim.issued", float64(rp.issued), "count", "internal/cube", n},
	}
	if wl.stream {
		out = append(out, metric{"pixel.split_us", rp.splitUS, "us", "internal/pixel", n})
	}
	if rp.cycles > 0 {
		out = append(out, metric{"sim.host_ns_per_cycle", ratio(rp.runNS, rp.cycles), "ns", "internal/cube", n})
	}
	return out
}

// perKernel reports sim-direct's median host time per kernel.
func perKernel(r pass) []metric {
	byKernel := map[string][]float64{}
	var order []string
	for _, s := range r.samples {
		k := s.body.kern.name
		if byKernel[k] == nil {
			order = append(order, k)
		}
		byKernel[k] = append(byKernel[k], ms(s.end.Sub(s.start)))
	}
	var out []metric
	for _, k := range order {
		out = append(out, metric{"sim." + k + ".run_ms", median(byKernel[k]), "ms", "internal/cube", len(byKernel[k])})
	}
	return out
}

// encodeImages writes run outputs as the server does: one PPM for a
// three-plane request, otherwise one PGM per plane or stream frame.
func encodeImages(w io.Writer, outs []*ipim.Image, ppm bool) error {
	if ppm {
		return ipim.WritePPM(w, outs[0], outs[1], outs[2])
	}
	for _, o := range outs {
		if err := ipim.WritePGM(w, o); err != nil {
			return err
		}
	}
	return nil
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
