package serve

// POST /v1/stream: multi-frame (video) processing. The body is a
// back-to-back concatenation of binary PGM frames sharing one
// geometry; the response streams the processed frames back in order,
// flushed one at a time. The point of the endpoint — versus N separate
// /v1/process calls — is amortization:
//
//   - one artifact compile (or cache fetch) covers the whole stream;
//   - one pooled machine is held for the stream's duration;
//   - host-transfer accounting is recorded once for the whole body,
//     the way a real host would batch frames across the bus.
//
// Each frame is one run, and every run starts from a fresh machine, so
// a frame's simulated cycles depend on that frame alone: a failed-over
// stream reports the same cycles as an uninterrupted one.
//
// A failure after the first frame has been written cannot change the
// committed status line, so the handler aborts the connection instead
// (panic(http.ErrAbortHandler)); the router turns that into a failover
// and replays the remaining frames on another worker, byte-identical
// by the determinism contract.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ipim"
	"ipim/internal/pixel"
)

// errChaosStreamAbort is the injected mid-stream failure of the
// ChaosStreamAbortAfterFrames knob.
var errChaosStreamAbort = errors.New("serve: chaos: injected stream abort")

// SetStreamChaos re-arms the streaming chaos knob at runtime: the next
// stream aborts its connection after abortAfter output frames, once.
// Test hook for the fleet failover gate; never call it in production.
func (s *Server) SetStreamChaos(abortAfter int) {
	s.chaosStreamAbort.Store(int64(abortAfter))
	s.chaosStreamClaimed.Store(false)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.refuseRun(w) {
		return
	}

	q := r.URL.Query()
	wlName := q.Get("workload")
	if wlName == "" {
		http.Error(w, "missing required query parameter: workload", http.StatusBadRequest)
		return
	}
	wl, err := ipim.WorkloadByName(wlName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if wl.Build().Pipe.Histogram {
		http.Error(w, fmt.Sprintf("workload %s reduces to bins, not an image; histogram pipelines are not streamable", wl.Name), http.StatusBadRequest)
		return
	}
	optName := q.Get("opts")
	if optName == "" {
		optName = "opt"
	}
	opts, err := ipim.OptionsByName(optName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	timeout, err := s.requestTimeout(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	budget, err := s.requestBudget(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	mode, err := requestMode(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	budget.Mode = mode
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	rawFrames, imgW, imgH, err := pixel.SplitPGMFrames(body, s.cfg.StreamMaxFrames)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	imgs := make([]*ipim.Image, len(rawFrames))
	for i, f := range rawFrames {
		if imgs[i], err = ipim.ReadPGM(bytes.NewReader(f)); err != nil {
			http.Error(w, fmt.Sprintf("stream frame %d: %v", i, err), http.StatusBadRequest)
			return
		}
	}

	// Compile once for the whole stream; the artifact is the unit the
	// router shards on, so every frame of this geometry lands here.
	key := cacheKey{Workload: wl.Name, W: imgW, H: imgH, Opts: opts}
	art, sched, hit, err := s.cache.get(key, func() (*ipim.Artifact, error) {
		cfg := s.cfg.Machine
		return ipim.Compile(&cfg, wl.Build().Pipe, imgW, imgH, opts)
	})
	if err != nil {
		http.Error(w, "compile: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.tuner.maybeEnqueue(key, wl)

	// Single-shot chaos claim: the first stream to arrive with a knob
	// armed takes the injection, every other stream runs clean.
	chaosAbort, chaosStall := 0, 0
	if a, st := int(s.chaosStreamAbort.Load()), s.cfg.ChaosStreamStallAfterFrames; a > 0 || st > 0 {
		if s.chaosStreamClaimed.CompareAndSwap(false, true) {
			chaosAbort, chaosStall = a, st
		}
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ipim-frames")
	h.Set("X-Ipim-Workload", wl.Name)
	h.Set("X-Ipim-Config", optName)
	h.Set("X-Ipim-Image", fmt.Sprintf("%dx%d", imgW, imgH))
	h.Set("X-Ipim-Stream-Frames", strconv.Itoa(len(imgs)))
	h.Set("X-Ipim-Cache", cacheLabel(hit))
	h.Set("X-Ipim-Schedule", scheduleLabel(sched))
	h.Set("X-Ipim-Mode", mode.String())
	// ResponseController unwraps the metrics recorder to reach the real
	// Flusher: each frame must hit the wire when it completes, both for
	// client latency and so a mid-stream abort leaves the delivered
	// prefix whole.
	rc := http.NewResponseController(w)

	// One submitWait holds one machine for the whole stream. submitWait
	// (not submit) because the job writes w; the handler must not
	// return while the worker might still be streaming into it.
	var (
		written                          int   // output frames committed to the wire
		outBytes                         int64 // response payload for the transfer meter
		cycles                           int64 // accounting summed across frames
		issued                           int64
		energyJ                          float64
		injected, corrected, uncorrected int64
	)
	nPEs, nVaults := s.cfg.Machine.TotalPEs(), s.cfg.Machine.TotalVaults()
	err = s.pool.submitWait(ctx, func(ctx context.Context, m *ipim.Machine) error {
		if sched != nil {
			m.SetDRAMPolicy(sched.Page, sched.Sched)
			defer m.SetDRAMPolicy(s.cfg.Machine.Page, s.cfg.Machine.Sched)
		}
		for i, img := range imgs {
			out, stats, err := ipim.RunContext(ctx, m, art, img, budget)
			for attempt := 0; err != nil && errors.Is(err, ipim.ErrTransientFault) && attempt < s.cfg.MaxRetries; attempt++ {
				s.metrics.retries.Inc()
				out, stats, err = ipim.RunContext(ctx, m, art, img, budget)
			}
			if err != nil {
				return fmt.Errorf("stream frame %d: %w", i, err)
			}
			cycles += stats.Cycles
			issued += stats.Issued
			energyJ += ipim.EnergyOf(&stats, nPEs, nVaults).Total()
			corrected += stats.DRAM.ECCCorrected
			uncorrected += stats.DRAM.ECCUncorrected
			injected += stats.DRAM.ECCCorrected + stats.DRAM.ECCUncorrected + stats.NoC.LinkFaults
			var buf bytes.Buffer
			if err := ipim.WritePGM(&buf, out); err != nil {
				return fmt.Errorf("stream frame %d: %w", i, err)
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return fmt.Errorf("stream frame %d: client write: %w", i, err)
			}
			// Flush errors are non-fatal: a writer with no Flusher just
			// buffers until the handler returns.
			rc.Flush()
			written++
			outBytes += int64(buf.Len())
			switch {
			case chaosAbort > 0 && written == chaosAbort:
				return errChaosStreamAbort
			case chaosStall > 0 && written == chaosStall:
				s.cfg.Logger.Printf("chaos: stalling stream after %d frame(s); waiting for the kill", written)
				<-make(chan struct{}) // held until the harness kills the process
			}
		}
		return nil
	})
	if err != nil {
		if written > 0 {
			// The status line is committed; the only honest failure signal
			// left is tearing the connection down so the client (router)
			// knows the stream is short and can fail over.
			s.cfg.Logger.Printf("stream: aborting after %d/%d frame(s): %v", written, len(imgs), err)
			panic(http.ErrAbortHandler)
		}
		s.failProcess(w, err)
		return
	}
	s.degrade.observe(uncorrected)
	s.metrics.observeRun(cycles, energyJ, injected, corrected, uncorrected)
	s.metrics.streams.Inc()
	s.metrics.streamFrames.Add(int64(written))
	// One meter record for the whole stream: the transfer model batches
	// the frames across the bus, which is the amortization the endpoint
	// exists to claim.
	s.meter.Record(int64(len(body)), outBytes)
}
