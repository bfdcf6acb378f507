package compiler

// Program golden: the emitted bytes of a fixed set of compiles, pinned
// by SHA-256 in testdata/program_golden.json at the repository root,
// beside the simulator's stats_golden.json. Every Table II kernel is
// compiled on the single-vault machine at test size, bench size and
// the request geometries the compile-churn benchmark rotates through;
// every Table II kernel again at test size under all five option sets
// on a tiny machine; and every DNN operator at test size on the tiny
// machine and at bench size on the single-vault one, under both
// schedules.
// Regenerate with
//
//	go test ./internal/compiler -run '^TestProgramGolden$' -update
//
// only when a change is meant to alter the generated code; a change to
// how the compiler computes the same code must leave every entry
// untouched.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"ipim/internal/halide"
	"ipim/internal/isa"
	"ipim/internal/sim"
	"ipim/internal/workloads"
)

var updateProgramGolden = flag.Bool("update", false, "rewrite testdata/program_golden.json from the current compiler")

const programGoldenPath = "../../testdata/program_golden.json"

// goldenCompile is one pinned compile: a pipeline, an input geometry,
// a machine and an option set.
type goldenCompile struct {
	name string
	cfg  sim.Config
	pipe func() *halide.Pipeline
	w, h int
	opts Options
}

// goldenCompiles lists the pinned compiles in a fixed order.
func goldenCompiles() []goldenCompile {
	var out []goldenCompile
	add := func(cfgName string, cfg sim.Config, opts Options, kernel string, pipe func() *halide.Pipeline, w, h int, suffix string) {
		out = append(out, goldenCompile{
			name: fmt.Sprintf("%s/%s/%s/%dx%d%s", cfgName, opts.Name(), kernel, w, h, suffix),
			cfg:  cfg, pipe: pipe, w: w, h: h, opts: opts,
		})
	}
	for _, wl := range workloads.All() {
		pipe := func() *halide.Pipeline { return wl.Build().Pipe }
		sizes := [][2]int{{wl.TestW, wl.TestH}, {wl.BenchW, wl.BenchH}}
		if wl.MultiStage {
			for _, w := range []int{512, 1024} {
				for _, h := range []int{16, 32, 64} {
					sizes = append(sizes, [2]int{w, h})
				}
			}
		} else {
			sizes = append(sizes, [2]int{128, 64})
		}
		for _, s := range sizes {
			add("onevault", sim.OneVault(), Opt, wl.Name, pipe, s[0], s[1], "")
		}
		cfgName, cfg := "tiny", sim.TestTiny()
		if wl.MultiStage {
			cfgName, cfg = "tiny-onevault", sim.TestTinyOneVault()
		}
		for _, opts := range []Options{Opt, Baseline1, Baseline2, Baseline3, Baseline4} {
			add(cfgName, cfg, opts, wl.Name, pipe, wl.TestW, wl.TestH, "")
		}
	}
	for _, wl := range workloads.DNN() {
		for _, multiArray := range []bool{false, true} {
			pipe := func() *halide.Pipeline { return wl.Build().Pipe.MultiArraySchedule(multiArray) }
			suffix := ""
			if multiArray {
				suffix = "/multi-array"
			}
			add("tiny", sim.TestTiny(), Opt, wl.Name, pipe, wl.TestW, wl.TestH, suffix)
			add("onevault", sim.OneVault(), Opt, wl.Name, pipe, wl.BenchW, wl.BenchH, suffix)
		}
	}
	return out
}

// programGoldenEntry pins one compile: the SHA-256 of the encoded
// program (followed by the leader variant's, when there is one), the
// total instruction count and the spill count — or the compile error.
type programGoldenEntry struct {
	SHA256       string `json:"sha256,omitempty"`
	Instructions int    `json:"instructions,omitempty"`
	Spills       int    `json:"spills,omitempty"`
	Error        string `json:"error,omitempty"`
}

func programGoldenOf(c goldenCompile) programGoldenEntry {
	cfg := c.cfg
	art, err := Compile(&cfg, c.pipe(), c.w, c.h, c.opts)
	if err != nil {
		return programGoldenEntry{Error: err.Error()}
	}
	h := sha256.New()
	h.Write(isa.EncodeProgram(art.Prog))
	n := len(art.Prog.Ins)
	if art.LeaderProg != nil {
		h.Write(isa.EncodeProgram(art.LeaderProg))
		n += len(art.LeaderProg.Ins)
	}
	return programGoldenEntry{SHA256: hex.EncodeToString(h.Sum(nil)), Instructions: n, Spills: art.Spills}
}

func TestProgramGolden(t *testing.T) {
	got := map[string]programGoldenEntry{}
	for _, c := range goldenCompiles() {
		if _, dup := got[c.name]; dup {
			t.Fatalf("duplicate golden compile %s", c.name)
		}
		got[c.name] = programGoldenOf(c)
	}

	if *updateProgramGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(programGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	b, err := os.ReadFile(programGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]programGoldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d entries, run produced %d", len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if g := got[name]; g != w {
			t.Errorf("%s: program diverged from golden\n got  %+v\n want %+v", name, g, w)
		}
	}
}
