package ipim

// Counter-exact statistics golden: the full cycle-mode sim.Stats — every
// activity counter the energy model reads, not just cycles and issues —
// for each Table II kernel and each DNN-family operator at test size,
// each on a fresh machine, compared field for field against
// testdata/stats_golden.json. Regenerate with
//
//	go test . -run '^TestStatsGolden$' -update
//
// only when a change is meant to move the timing model; a refactor of
// the executor must leave every entry untouched.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateStatsGolden = flag.Bool("update", false, "rewrite testdata/stats_golden.json from the current simulator")

const statsGoldenPath = "testdata/stats_golden.json"

// statsGoldenCase is one golden entry's workload: its pipeline, input
// size and machine.
type statsGoldenCase struct {
	name string
	cfg  Config
	art  func(cfg *Config) (*Artifact, *Image, error)
	hist bool
}

// statsGoldenCases lists the pinned runs. Table II kernels run on the
// single-vault tiny machine, where the clock identity
// Cycles == Issued + Σ StallCycles holds exactly; the DNN family runs on
// the two-vault tiny machine its own differential tests use.
func statsGoldenCases() []statsGoldenCase {
	var cases []statsGoldenCase
	for _, wl := range Workloads() {
		wl := wl
		cases = append(cases, statsGoldenCase{
			name: wl.Name,
			cfg:  TinyOneVaultConfig(),
			hist: wl.Name == "Histogram",
			art: func(cfg *Config) (*Artifact, *Image, error) {
				img := Synth(wl.TestW, wl.TestH, uint64(wl.TestW)*1_000_003+uint64(wl.TestH))
				art, err := Compile(cfg, wl.Build().Pipe, img.W, img.H, Opt)
				return art, img, err
			},
		})
	}
	for _, wl := range DNNWorkloads() {
		wl := wl
		cases = append(cases, statsGoldenCase{
			name: wl.Name,
			cfg:  TinyConfig(),
			art: func(cfg *Config) (*Artifact, *Image, error) {
				img := dnnImg(wl.TestW, wl.TestH)
				art, err := Compile(cfg, wl.Build().Pipe, img.W, img.H, Opt)
				return art, img, err
			},
		})
	}
	return cases
}

func TestStatsGolden(t *testing.T) {
	got := map[string]Stats{}
	for _, c := range statsGoldenCases() {
		cfg := c.cfg
		art, img, err := c.art(&cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stats Stats
		if c.hist {
			_, stats, err = RunHistogram(m, art, img)
		} else {
			_, stats, err = Run(m, art, img)
		}
		if err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		if cfg.Cubes*cfg.VaultsPerCube == 1 {
			var stall int64
			for _, s := range stats.StallCycles {
				stall += s
			}
			if stats.Cycles != stats.Issued+stall {
				t.Errorf("%s: Cycles %d != Issued %d + stalls %d", c.name, stats.Cycles, stats.Issued, stall)
			}
		}
		got[c.name] = stats
	}

	if *updateStatsGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(statsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	b, err := os.ReadFile(statsGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d entries, run produced %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: stats diverged from golden\n got  %+v\n want %+v", name, g, w)
		}
	}
}
