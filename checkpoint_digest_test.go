package ipim

// Byte pin on checkpoint output: the SHA-256 of every sealed checkpoint
// a fixed set of runs writes, compared against
// testdata/checkpoint_digests.json. The resume differentials check that
// a checkpoint restores to the same run; this checks that the bytes
// themselves do not move, so a refactor of any state the codec walks
// (registers, memories, controller images) must keep the format
// byte-identical or bump its version. Regenerate with
//
//	go test . -run '^TestCheckpointDigests$' -update
//
// (the package's one -update flag, declared in stats_golden_test.go)
// only for a deliberate format change.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

const checkpointDigestsPath = "testdata/checkpoint_digests.json"

// checkpointDigestKernels are the pinned runs: a single-stage stencil,
// the value-addressed Histogram (mov_arf, so AddrRF contents vary with
// the data) and the multi-stage StencilChain.
var checkpointDigestKernels = []string{"GaussianBlur", "Histogram", "StencilChain"}

func TestCheckpointDigests(t *testing.T) {
	got := map[string][]string{}
	for _, name := range checkpointDigestKernels {
		wl, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := TinyOneVaultConfig()
		img := Synth(wl.TestW, wl.TestH, uint64(wl.TestW)*1_000_003+uint64(wl.TestH))
		art, err := Compile(&cfg, wl.Build().Pipe, img.W, img.H, Opt)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sums []string
		opts := RunOptions{CheckpointEvery: 1, CheckpointSink: func(data []byte) error {
			h := sha256.Sum256(data)
			sums = append(sums, hex.EncodeToString(h[:]))
			return nil
		}}
		if name == "Histogram" {
			_, _, err = RunHistogramContext(context.Background(), m, art, img, opts)
		} else {
			_, _, err = RunContext(context.Background(), m, art, img, opts)
		}
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if len(sums) == 0 {
			t.Fatalf("%s: run took no checkpoints", name)
		}
		got[name] = sums
	}

	if *updateStatsGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkpointDigestsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	b, err := os.ReadFile(checkpointDigestsPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for _, name := range checkpointDigestKernels {
			g, w := got[name], want[name]
			if len(g) != len(w) {
				t.Errorf("%s: %d checkpoints, golden has %d", name, len(g), len(w))
				continue
			}
			for i := range g {
				if g[i] != w[i] {
					t.Errorf("%s: checkpoint %d of %d: sha256 %s, golden %s", name, i, len(g), g[i], w[i])
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Errorf("golden holds %d kernels, run produced %d", len(want), len(got))
		}
	}
}
