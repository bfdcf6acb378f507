package main

// The sim-direct environment: no HTTP, one reused onevault machine
// running the kernels in a fixed rotation, as ipim-bench does. It is
// the one workload whose simulated counts are an exact invariant: each
// set-up checks every kernel's cycles and instructions on a
// timing-fresh machine against expect_sim_direct.json, and every
// measured run its instruction count. (Cycles of a reused machine
// depend on what ran before; a short rotation can settle into a cycle
// of two or more passes.)

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"ipim"
)

//go:embed expect_sim_direct.json
var expectJSON []byte

// expectEntry is the accounting of one kernel run on a timing-fresh
// machine (Machine.Reset before the run).
type expectEntry struct {
	Kernel string `json:"kernel"`
	W      int    `json:"w"`
	H      int    `json:"h"`
	Cycles int64  `json:"cycles"`
	Issued int64  `json:"issued"`
}

// expectFile is the layout of expect_sim_direct.json.
type expectFile struct {
	About   string        `json:"about"`
	Kernels []expectEntry `json:"kernels"`
}

// directEnv is one machine with every kernel of the rotation compiled.
type directEnv struct {
	wl     *workload
	m      *ipim.Machine
	arts   map[kernel]*ipim.Artifact
	expect map[kernel]expectEntry
	// update (-update-expect) starts with no expectations and records
	// each kernel's set-up run as its expectation.
	update bool
	// coldErrs are the set-up runs that differ from the expectations.
	coldErrs []error
}

// startDirect builds the machine, compiles the rotation and runs one
// warm-up pass over it, each run from a timing-fresh machine and
// checked against the expectations.
func startDirect(wl *workload, update bool) (*directEnv, error) {
	m, err := ipim.NewMachine(ipim.OneVaultConfig())
	if err != nil {
		return nil, err
	}
	m.SetParallelism(1)
	d := &directEnv{wl: wl, m: m, arts: map[kernel]*ipim.Artifact{}, expect: map[kernel]expectEntry{}, update: update}
	if !update {
		var f expectFile
		if err := json.Unmarshal(expectJSON, &f); err != nil {
			return nil, fmt.Errorf("expect_sim_direct.json: %w", err)
		}
		for _, e := range f.Kernels {
			d.expect[kernel{e.Kernel, e.W, e.H}] = e
		}
	}
	warm := wl.firstUses(0)
	for _, i := range warm {
		k := wl.at(i).kern
		if d.arts[k], err = k.compile(); err != nil {
			return nil, fmt.Errorf("compile %s: %w", k.name, err)
		}
	}
	for _, i := range warm {
		b := wl.at(i)
		m.Reset()
		_, _, st, err := runPlane(m, d.arts[b.kern], b.planes[0], ipim.CycleMode)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", b.kern.name, err)
		}
		if update {
			d.expect[b.kern] = expectEntry{Kernel: b.kern.name, W: b.kern.w, H: b.kern.h, Cycles: st.Cycles, Issued: st.Issued}
		}
		if err := d.check(b.kern, st, true); err != nil {
			d.coldErrs = append(d.coldErrs, err)
		}
	}
	return d, nil
}

// check compares a run's instruction count, and with cycles its cycle
// count, with the kernel's expectation.
func (d *directEnv) check(k kernel, st ipim.Stats, cycles bool) error {
	want, ok := d.expect[k]
	switch {
	case !ok:
		return fmt.Errorf("%s %dx%d: no entry in expect_sim_direct.json (run with -update-expect)", k.name, k.w, k.h)
	case st.Issued != want.Issued:
		return fmt.Errorf("%s %dx%d: %d instructions issued, expect_sim_direct.json says %d", k.name, k.w, k.h, st.Issued, want.Issued)
	case cycles && st.Cycles != want.Cycles:
		return fmt.Errorf("%s %dx%d: %d cycles from a fresh machine, expect_sim_direct.json says %d", k.name, k.w, k.h, st.Cycles, want.Cycles)
	}
	return nil
}

func (d *directEnv) clients() int { return 1 }

func (d *directEnv) close() {}

// do runs the i-th kernel of the rotation and checks its output and its
// simulated instruction count.
func (d *directEnv) do(i int, tr *tracer) sample {
	b := d.wl.at(i)
	s := sample{idx: i, body: b}
	s.start = time.Now()
	out, bins, st, err := runPlane(d.m, d.arts[b.kern], b.planes[0], ipim.CycleMode)
	s.end = time.Now()
	tr.add(fmt.Sprintf("r%d", i), "sim.run."+b.kern.name, "", s.start, s.end)
	s.issued = st.Issued
	if err != nil {
		s.err = fmt.Errorf("%s: %w", b.kern.name, err)
		return s
	}
	got := hashBinsOrImage(out, bins)
	if got != b.want {
		s.err = fmt.Errorf("%s: output differs from the reference", b.kern.name)
		return s
	}
	s.err = d.check(b.kern, st, false)
	return s
}

// writeExpect rewrites the expectation file with every entry the run
// used, keeping entries for other geometries.
func (d *directEnv) writeExpect(path string) error {
	var f expectFile
	if err := json.Unmarshal(expectJSON, &f); err != nil {
		return err
	}
	merged := map[kernel]expectEntry{}
	for _, e := range f.Kernels {
		merged[kernel{e.Kernel, e.W, e.H}] = e
	}
	for k, e := range d.expect {
		merged[k] = e
	}
	f.Kernels = f.Kernels[:0]
	for _, e := range merged {
		f.Kernels = append(f.Kernels, e)
	}
	sort.Slice(f.Kernels, func(i, j int) bool {
		a, b := f.Kernels[i], f.Kernels[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.W*a.H < b.W*b.H
	})
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
