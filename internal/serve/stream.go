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

// errChaosStreamAbort is the injected mid-stream failure SetStreamChaos
// arms.
var errChaosStreamAbort = errors.New("serve: chaos: injected stream abort")

// SetStreamChaos arms the streaming chaos knob: the next stream aborts
// its connection after abortAfter output frames, once. Test hook for
// the fleet failover gate; never call it in production.
func (s *Server) SetStreamChaos(abortAfter int) {
	s.chaosStreamAbort.Store(int64(abortAfter))
	s.chaosStreamClaimed.Store(false)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseRun(w, r)
	if !ok {
		return
	}
	imgs, err := s.decodeFrames(req.body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Compile once for the whole stream; the artifact is the unit the
	// router shards on, so every frame of this geometry lands here.
	a, ok := s.fetch(w, &req, imgs[0].W, imgs[0].H)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), req.timeout)
	defer cancel()

	// Single-shot chaos claim: the first stream to arrive with a knob
	// armed takes the injection, every other stream runs clean.
	chaosAbort, chaosStall := 0, 0
	if abort, stall := int(s.chaosStreamAbort.Load()), s.cfg.ChaosStreamStallAfterFrames; abort > 0 || stall > 0 {
		if s.chaosStreamClaimed.CompareAndSwap(false, true) {
			chaosAbort, chaosStall = abort, stall
		}
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ipim-frames")
	a.setHeaders(h, &req)
	h.Set("X-Ipim-Stream-Frames", strconv.Itoa(len(imgs)))
	// ResponseController unwraps the metrics recorder to reach the real
	// Flusher: each frame must hit the wire when it completes, both for
	// client latency and so a mid-stream abort leaves the delivered
	// prefix whole.
	rc := http.NewResponseController(w)

	// One submitWait holds one machine for the whole stream. submitWait
	// (not submit) because the job writes w; the handler must not
	// return while the worker might still be streaming into it.
	var (
		t        tally
		written  int   // output frames committed to the wire
		outBytes int64 // response payload for the transfer meter
	)
	err = s.pool.submitWait(ctx, s.tunedJob(&a, func(ctx context.Context, m *ipim.Machine) error {
		for i, img := range imgs {
			out, stats, err := ipim.RunContext(ctx, m, a.Artifact, img, req.run)
			for attempt := 0; err != nil && errors.Is(err, ipim.ErrTransientFault) && attempt < s.cfg.MaxRetries; attempt++ {
				s.metrics.retries.Inc()
				out, stats, err = ipim.RunContext(ctx, m, a.Artifact, img, req.run)
			}
			if err != nil {
				return fmt.Errorf("stream frame %d: %w", i, err)
			}
			t.add(&stats, &s.cfg.Machine)
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
	}))
	if err != nil {
		if written > 0 {
			// The status line is committed; the only honest failure signal
			// left is tearing the connection down so the client (router)
			// knows the stream is short and can fail over.
			s.cfg.Logger.Printf("stream: aborting after %d/%d frame(s): %v", written, len(imgs), err)
			panic(http.ErrAbortHandler)
		}
		failRun(w, err)
		return
	}
	s.record(&t, req.run.Mode)
	s.metrics.streams.Inc()
	s.metrics.streamFrames.Add(int64(written))
	// One meter record for the whole stream: the transfer model batches
	// the frames across the bus, which is the amortization the endpoint
	// exists to claim.
	s.meter.Record(int64(len(req.body)), outBytes)
}

// decodeFrames decodes a /v1/stream body: back-to-back binary PGM
// frames of one geometry, at most Config.StreamMaxFrames of them.
func (s *Server) decodeFrames(body []byte) ([]*ipim.Image, error) {
	raw, _, _, err := pixel.SplitPGMFrames(body, s.cfg.StreamMaxFrames)
	if err != nil {
		return nil, err
	}
	imgs := make([]*ipim.Image, len(raw))
	for i, f := range raw {
		if imgs[i], err = ipim.ReadPGM(bytes.NewReader(f)); err != nil {
			return nil, fmt.Errorf("stream frame %d: %v", i, err)
		}
	}
	return imgs, nil
}
