package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for a handful of requests, traced, and
// checks the correctness gate passed, that the result lines carry
// exactly the metrics and units BENCHMARK.json lists, and that every
// record carries every schema field.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	wantUnits := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}

	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			wl, err := newWorkload(name, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			o := options{workload: name, seed: 7, requests: 3, smoke: true, trace: true,
				traceDir: dir, jsonPath: filepath.Join(dir, "records.jsonl")}
			if wl.direct || wl.stream {
				o.requests = wl.round // the whole rotation; one clip each
			}
			var log bytes.Buffer
			res, err := run(o, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("%d of %d requests failed:\n%s", res.failed, res.attempted, log.String())
			}
			for _, tc := range []struct {
				trace bool
				want  map[string]string
			}{{false, wantUnits(bj.EndToEnd)}, {true, wantUnits(bj.PerLayer)}} {
				o.trace = tc.trace
				var out bytes.Buffer
				if err := report(&out, o, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for k, v := range line.Metrics {
					got[k] = v.Unit
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("trace=%v result metrics\n got %v\nwant %v", tc.trace, got, tc.want)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("result line %+v", line)
				}
			}
			for _, f := range []string{"spans.jsonl", "cpu.pprof", "records.jsonl"} {
				if _, err := os.Stat(filepath.Join(dir, name, f)); err != nil {
					t.Error(err)
				}
			}
			checkRecords(t, o.jsonPath)
		})
	}
}

// checkRecords asserts every record has exactly the schema's fields,
// with the string fields filled in.
func checkRecords(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := []string{"cmd", "date", "go", "host", "layer", "metric", "n", "rev", "seed", "unit", "value", "workload"}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k, v := range rec {
			keys = append(keys, k)
			if s, ok := v.(string); ok && s == "" {
				t.Errorf("record %v: empty %s", rec, k)
			}
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("record fields %v, want %v", keys, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no records written")
	}
}

// TestFuncPackage checks how profile symbols map to import paths.
func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"ipim/internal/vault.(*Vault).issue": "ipim/internal/vault",
		"runtime.mallocgc":                   "runtime",
		"net/http.(*conn).serve":             "net/http",
		"main.main":                          "main",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}
