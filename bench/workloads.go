package main

// The five workloads: what each one sends, in which seeded order, and
// the correct response to every distinct request body.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"ipim"
	"ipim/internal/fleet"
	"ipim/internal/pixel"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"serve-mix", "serve-light", "compile-churn", "stream-replay", "sim-direct"}

// kernel is one compiled-artifact shape: a Table II or DNN workload at
// one image geometry.
type kernel struct {
	name string
	w, h int
}

// routingKey mirrors the key the fleet router derives for /v1/process
// and /v1/stream requests with the default compiler options, so the
// per-layer replay places each request on the machine the router would.
func (k kernel) routingKey() string {
	return fmt.Sprintf("art|%s|opt|%dx%d", k.name, k.w, k.h)
}

// pipeline builds a fresh pipeline for the kernel, from the Table II
// suite or the DNN family. host is the DNN golden reference (nil for
// Table II kernels).
func (k kernel) pipeline() (pipe *ipim.Pipeline, host func(*ipim.Image) *ipim.Image, err error) {
	if wl, err := ipim.WorkloadByName(k.name); err == nil {
		return wl.Build().Pipe, nil, nil
	}
	dnn, err := ipim.DNNWorkloadByName(k.name)
	if err != nil {
		return nil, nil, err
	}
	return dnn.Build().Pipe, dnn.Host, nil
}

// compile maps the kernel onto the onevault machine every worker uses.
func (k kernel) compile() (*ipim.Artifact, error) {
	pipe, _, err := k.pipeline()
	if err != nil {
		return nil, err
	}
	cfg := ipim.OneVaultConfig()
	return ipim.Compile(&cfg, pipe, k.w, k.h, ipim.Opt)
}

// body is one distinct request body of a workload and the response the
// harness accepts for it.
type body struct {
	kern   kernel
	ppm    bool   // P6 body: three planes, one run each
	frames int    // stream clip length; 0 for a single image
	seed   uint64 // image seed, derived from -seed

	// Filled by prepare.
	data      []byte        // the encoded request body
	planes    []*ipim.Image // sim-direct: the input image, never encoded
	want      [32]byte      // SHA-256 of the correct response body
	frameLens []int         // stream: encoded length of each output frame
	issued    int64         // simulated instructions the request executes
}

// workload is one benchmark workload: a pool of bodies and a seeded
// request sequence over it.
type workload struct {
	name    string
	mode    ipim.Mode // execution mode of every request
	stream  bool      // POST /v1/stream instead of /v1/process
	direct  bool      // sim-direct: no HTTP, one reused machine
	bodies  []*body
	seq     []int // request order, indices into bodies; cycled
	round   int   // requests per round of the sequence; runs end on a round
	replayN int   // requests the per-layer replay re-executes
}

// path is the endpoint the workload posts to.
func (wl *workload) path() string {
	if wl.stream {
		return "/v1/stream"
	}
	return "/v1/process"
}

// query is the query string of a request for b.
func (wl *workload) query(b *body) string {
	q := "workload=" + b.kern.name
	if wl.mode == ipim.FunctionalMode {
		q += "&mode=functional"
	}
	return q
}

// at returns the body of the i-th request of the sequence.
func (wl *workload) at(i int) *body { return wl.bodies[wl.seq[i%len(wl.seq)]] }

// firstUses returns, for each distinct kernel among the first n
// requests (the whole sequence when n <= 0), the index of its first
// request: the warm-up set.
func (wl *workload) firstUses(n int) []int {
	if n <= 0 {
		n = len(wl.seq)
	}
	var idx []int
	seen := map[kernel]bool{}
	for i := 0; i < n; i++ {
		if k := wl.at(i).kern; !seen[k] {
			seen[k] = true
			idx = append(idx, i)
		}
	}
	return idx
}

// tableII is the paper's suite at bench size, or at the smallest
// geometry the onevault machine compiles when smoke is set.
func tableII(smoke bool) []kernel {
	small := map[string][2]int{
		"Downsample": {256, 128}, "Upsample": {64, 32},
		"BilateralGrid": {512, 16}, "Interpolate": {512, 16}, "LocalLaplacian": {512, 16}, "StencilChain": {512, 16},
	}
	var out []kernel
	for _, wl := range ipim.Workloads() {
		k := kernel{wl.Name, wl.BenchW, wl.BenchH}
		if smoke {
			k.w, k.h = 128, 64
			if s, ok := small[wl.Name]; ok {
				k.w, k.h = s[0], s[1]
			}
		}
		out = append(out, k)
	}
	return out
}

// dnnKernels is the DNN family at bench width (256 wide for smoke).
func dnnKernels(smoke bool) []kernel {
	var out []kernel
	for _, wl := range ipim.DNNWorkloads() {
		k := kernel{wl.Name, wl.BenchW, wl.BenchH}
		if smoke {
			k.w = 256
		}
		out = append(out, k)
	}
	return out
}

// splitmix64 derives independent image seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// newWorkload builds the named workload's body pool and request order
// from seed. smoke shrinks images and clips for the smoke test.
func newWorkload(name string, seed uint64, smoke bool) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x1B0E5C))
	nextSeed := func() uint64 { seed = splitmix64(seed); return seed }
	wl := &workload{name: name}
	addPool := func(k kernel, n int, ppm bool, frames int) []int {
		var idx []int
		for j := 0; j < n; j++ {
			idx = append(idx, len(wl.bodies))
			wl.bodies = append(wl.bodies, &body{kern: k, ppm: ppm, frames: frames, seed: nextSeed()})
		}
		return idx
	}
	switch name {
	case "serve-mix":
		// Every Table II kernel at bench size in cycle mode; each round
		// of ten is a seeded permutation, so any window of the run sees
		// a balanced mix.
		wl.mode, wl.replayN = ipim.CycleMode, 20
		kerns := tableII(smoke)
		wl.round = len(kerns)
		var pools [][]int
		for _, k := range kerns {
			pools = append(pools, addPool(k, 8, false, 0))
		}
		for r := 0; r < 400; r++ {
			for _, k := range rng.Perm(len(kerns)) {
				wl.seq = append(wl.seq, pools[k][rng.IntN(len(pools[k]))])
			}
		}
	case "serve-light":
		// Small functional-mode requests: one in four is a P6 PPM.
		wl.mode, wl.round, wl.replayN = ipim.FunctionalMode, 4, 800
		var pgm, ppm [][]int
		for _, n := range []string{"Brighten", "Shift", "Upsample", "Histogram"} {
			k := kernel{n, 128, 64}
			pgm = append(pgm, addPool(k, 8, false, 0))
			ppm = append(ppm, addPool(k, 8, true, 0))
		}
		for r := 0; r < 10000; r++ {
			for j, k := range rng.Perm(len(pgm)) {
				pool := pgm[k]
				if j == 3 {
					pool = ppm[k]
				}
				wl.seq = append(wl.seq, pool[rng.IntN(len(pool))])
			}
		}
	case "compile-churn":
		// 24 keys in one fixed seeded rotation: longer than each
		// worker's 8-entry artifact LRU, so every request compiles.
		wl.mode, wl.replayN = ipim.FunctionalMode, 24
		var keys [][]int
		for _, n := range []string{"Interpolate", "LocalLaplacian", "StencilChain", "BilateralGrid"} {
			for _, w := range []int{512, 1024} {
				for _, h := range []int{16, 32, 64} {
					keys = append(keys, addPool(kernel{n, w, h}, 2, false, 0))
				}
			}
		}
		order := rng.Perm(len(keys))
		wl.round = len(keys)
		for pass := 0; pass < 200; pass++ {
			for _, k := range order {
				wl.seq = append(wl.seq, keys[k][pass%2])
			}
		}
	case "stream-replay":
		// One seeded clip per kernel, replayed alternately. Four frames
		// a clip give ~200 streams in a 15 s run, enough for a p95 with
		// ten samples beyond it.
		wl.mode, wl.stream, wl.round, wl.replayN = ipim.CycleMode, true, 2, 4
		frames := 4
		blur, chain := kernel{"GaussianBlur", 256, 128}, kernel{"StencilChain", 256, 64}
		if smoke {
			frames, blur, chain = 2, kernel{"GaussianBlur", 128, 64}, kernel{"Upsample", 64, 32}
		}
		addPool(blur, 1, false, frames)
		addPool(chain, 1, false, frames)
		for i := 0; i < 2000; i++ {
			wl.seq = append(wl.seq, i%2)
		}
	case "sim-direct":
		// The Table II suite plus the DNN family in a fixed rotation on
		// one machine; each pass takes a fresh seeded input per kernel.
		wl.mode, wl.direct = ipim.CycleMode, true
		var kerns []kernel
		for _, k := range append(tableII(smoke), dnnKernels(smoke)...) {
			// The smoke rotation skips the multi-stage pipelines, the
			// slowest to compile and run under the race detector.
			if wl, err := ipim.WorkloadByName(k.name); !smoke || err != nil || !wl.MultiStage {
				kerns = append(kerns, k)
			}
		}
		wl.round, wl.replayN = len(kerns), 2*len(kerns)
		var pools [][]int
		for _, k := range kerns {
			pools = append(pools, addPool(k, 4, false, 0))
		}
		offsets := make([]int, len(kerns))
		for i := range offsets {
			offsets[i] = rng.IntN(4)
		}
		for pass := 0; pass < 400; pass++ {
			for k, pool := range pools {
				wl.seq = append(wl.seq, pool[(pass+offsets[k])%len(pool)])
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	if smoke {
		wl.replayN = min(wl.replayN, 2)
	}
	return wl, nil
}

// workerAddrs are the advertise addresses of the two fleet workers.
// They are fixed names, resolved to loopback ports by the harness's
// dialer, so ring placement is the same in every run.
var workerAddrs = []string{"http://worker-0", "http://worker-1"}

// placement maps each routing key to the index of the worker that owns
// it on a ring holding workerAddrs.
func placement() func(kernel) int {
	ring := fleet.NewRing(0)
	for _, a := range workerAddrs {
		ring.Add(a)
	}
	return func(k kernel) int {
		owner, _ := ring.Lookup(k.routingKey())
		return sort.SearchStrings(workerAddrs, owner)
	}
}

// prepare encodes the bodies the first n requests use (every body when
// n <= 0) and computes each one's correct response: a functional-mode
// run of the decoded body, encoded exactly as the server encodes it.
// DNN kernels in sim-direct are checked against their host golden
// reference instead.
func prepare(wl *workload, n int) error {
	todo := wl.bodies
	if n > 0 {
		need := map[*body]bool{}
		for i := 0; i < n; i++ {
			need[wl.at(i)] = true
		}
		todo = nil
		for _, b := range wl.bodies {
			if need[b] {
				todo = append(todo, b)
			}
		}
	}
	var kerns []kernel
	arts := map[kernel]*ipim.Artifact{}
	for _, b := range todo {
		if _, ok := arts[b.kern]; !ok {
			arts[b.kern] = nil
			kerns = append(kerns, b.kern)
		}
	}
	compiled := make([]*ipim.Artifact, len(kerns))
	if err := parallel(len(kerns), func(_, i int) (err error) {
		compiled[i], err = kerns[i].compile()
		return err
	}); err != nil {
		return err
	}
	for i, k := range kerns {
		arts[k] = compiled[i]
	}
	machines := make([]*ipim.Machine, runtime.NumCPU())
	for i := range machines {
		m, err := ipim.NewMachine(ipim.OneVaultConfig())
		if err != nil {
			return err
		}
		m.SetParallelism(1)
		machines[i] = m
	}
	return parallel(len(todo), func(w, i int) error {
		return todo[i].prepare(wl, machines[w], arts[todo[i].kern])
	})
}

// parallel runs fn(w, i) for every i < n on one goroutine per CPU; w is
// the goroutine's index. It returns the first error.
func parallel(n int, fn func(w, i int) error) error {
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				errs[w] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// prepare encodes one body and records its correct response.
func (b *body) prepare(wl *workload, m *ipim.Machine, art *ipim.Artifact) error {
	k := b.kern
	if wl.direct {
		img := ipim.Synth(k.w, k.h, b.seed)
		b.planes = []*ipim.Image{img}
		_, host, err := k.pipeline()
		if err != nil {
			return err
		}
		if host != nil {
			b.want = hashImage(host(img))
			return nil
		}
		out, bins, _, err := runPlane(m, art, img, ipim.FunctionalMode)
		if err != nil {
			return err
		}
		b.want = hashBinsOrImage(out, bins)
		return nil
	}

	var req, resp bytes.Buffer
	switch {
	case b.frames > 0:
		for f := 0; f < b.frames; f++ {
			if err := ipim.WritePGM(&req, ipim.Synth(k.w, k.h, b.seed+uint64(f))); err != nil {
				return err
			}
		}
	case b.ppm:
		if err := ipim.WritePPM(&req, ipim.Synth(k.w, k.h, b.seed), ipim.Synth(k.w, k.h, b.seed+1), ipim.Synth(k.w, k.h, b.seed+2)); err != nil {
			return err
		}
	default:
		if err := ipim.WritePGM(&req, ipim.Synth(k.w, k.h, b.seed)); err != nil {
			return err
		}
	}
	b.data = req.Bytes()
	planes, err := decodeBody(b.data, b.ppm, b.frames)
	if err != nil {
		return err
	}
	var outs []*ipim.Image
	for _, p := range planes {
		out, bins, st, err := runPlane(m, art, p, ipim.FunctionalMode)
		if err != nil {
			return err
		}
		b.issued += st.Issued
		if bins != nil {
			// The server encodes histogram bins as JSON, exactly so.
			if err := json.NewEncoder(&resp).Encode(map[string]any{"workload": k.name, "bins": bins}); err != nil {
				return err
			}
			break
		}
		outs = append(outs, out)
	}
	switch {
	case resp.Len() > 0:
	case b.ppm:
		if err := ipim.WritePPM(&resp, outs[0], outs[1], outs[2]); err != nil {
			return err
		}
	default:
		for _, out := range outs {
			n := resp.Len()
			if err := ipim.WritePGM(&resp, out); err != nil {
				return err
			}
			b.frameLens = append(b.frameLens, resp.Len()-n)
		}
	}
	b.want = sha256.Sum256(resp.Bytes())
	return nil
}

// decodeBody decodes a request body into the planes the server runs:
// one per PGM image or stream frame, three for a PPM.
func decodeBody(data []byte, ppm bool, frames int) ([]*ipim.Image, error) {
	switch {
	case ppm:
		r, g, b, err := ipim.ReadPPM(bytes.NewReader(data))
		return []*ipim.Image{r, g, b}, err
	case frames > 0:
		raw, _, _, err := pixel.SplitPGMFrames(data, 0)
		if err != nil {
			return nil, err
		}
		var out []*ipim.Image
		for _, f := range raw {
			im, err := ipim.ReadPGM(bytes.NewReader(f))
			if err != nil {
				return nil, err
			}
			out = append(out, im)
		}
		return out, nil
	default:
		im, err := ipim.ReadPGM(bytes.NewReader(data))
		return []*ipim.Image{im}, err
	}
}

// runPlane runs one plane in the given mode: an output image, or bins
// for a histogram pipeline.
func runPlane(m *ipim.Machine, art *ipim.Artifact, img *ipim.Image, mode ipim.Mode) (*ipim.Image, []int32, ipim.Stats, error) {
	opts := ipim.RunOptions{Mode: mode}
	if art.Plan.Pipe.Histogram {
		bins, st, err := ipim.RunHistogramContext(context.Background(), m, art, img, opts)
		return nil, bins, st, err
	}
	out, st, err := ipim.RunContext(context.Background(), m, art, img, opts)
	return out, nil, st, err
}

// hashBinsOrImage hashes whichever output a run produced.
func hashBinsOrImage(out *ipim.Image, bins []int32) [32]byte {
	if bins != nil {
		return hashBins(bins)
	}
	return hashImage(out)
}

// hashImage hashes an image's exact float bits.
func hashImage(im *ipim.Image) [32]byte {
	buf := make([]byte, 4*len(im.Pix))
	for i, v := range im.Pix {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return sha256.Sum256(buf)
}

// hashBins hashes histogram bins exactly.
func hashBins(bins []int32) [32]byte {
	buf := make([]byte, 4*len(bins))
	for i, v := range bins {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return sha256.Sum256(buf)
}
