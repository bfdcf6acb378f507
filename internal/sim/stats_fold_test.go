package sim

import (
	"reflect"
	"testing"
)

// statLeaves enumerates every int64 leaf of a Stats by dotted path
// (array elements share their field's path), independently of the
// walkValue implementation Add uses, so these tests catch both a
// counter missing from the fold and a fold helper gone wrong.
func statLeaves(s *Stats) map[string][]*int64 {
	leaves := map[string][]*int64{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Int64:
			leaves[path] = append(leaves[path], v.Addr().Interface().(*int64))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path)
			}
		case reflect.Struct:
			t := v.Type()
			for i := 0; i < v.NumField(); i++ {
				p := t.Field(i).Name
				if path != "" {
					p = path + "." + p
				}
				walk(v.Field(i), p)
			}
		default:
			panic("stats fold test: unexpected field kind " + v.Kind().String() + " at " + path)
		}
	}
	walk(reflect.ValueOf(s).Elem(), "")
	return leaves
}

// fillDistinct sets every leaf to a distinct positive value and returns
// the assignment by path.
func fillDistinct(s *Stats, base int64) map[string][]int64 {
	vals := map[string][]int64{}
	n := base
	for path, ptrs := range statLeaves(s) {
		for _, p := range ptrs {
			n += 3
			*p = n
			vals[path] = append(vals[path], n)
		}
	}
	return vals
}

// TestStatsFoldCoversEveryField pins, field by field, that Add sums
// (or maxes) EVERY counter in Stats — including the embedded DRAM and
// NoC structs and both arrays. A new counter that Add fails to fold
// makes this fail immediately,
// because the expectation below is computed from the struct shape, not
// from a hand-maintained list.
func TestStatsFoldCoversEveryField(t *testing.T) {
	var src Stats
	fillDistinct(&src, 100)

	// Add into zero: every summed leaf must land exactly; the two
	// special fields are maxes, which over a zero destination also
	// equal the source.
	var sum Stats
	sum.Add(&src)
	if !reflect.DeepEqual(sum, src) {
		t.Fatalf("zero.Add(src) != src:\n got %+v\nwant %+v", sum, src)
	}

	// Add again: summed leaves double, max-semantics leaves stay.
	sum.Add(&src)
	srcLeaves := statLeaves(&src)
	for path, ptrs := range statLeaves(&sum) {
		for i, p := range ptrs {
			want := 2 * *srcLeaves[path][i]
			if path == "Cycles" || path == "NoC.MaxLatency" {
				want = *srcLeaves[path][i] // wall clock / watermark: max, not sum
			}
			if *p != want {
				t.Errorf("after double Add, %s = %d, want %d", path, *p, want)
			}
		}
	}
}

// TestStatsAddCyclesIsMax pins the wall-clock semantics: vaults run
// concurrently, so aggregating two vaults' stats keeps the slower
// clock rather than summing.
func TestStatsAddCyclesIsMax(t *testing.T) {
	a := Stats{Cycles: 100}
	b := Stats{Cycles: 70}
	a.Add(&b)
	if a.Cycles != 100 {
		t.Errorf("Cycles = %d after adding a faster vault, want 100", a.Cycles)
	}
	b.Add(&a)
	if b.Cycles != 100 {
		t.Errorf("Cycles = %d after adding a slower vault, want 100", b.Cycles)
	}
}

// TestStatsIPC covers the IPC quotient including the zero-cycle guard.
func TestStatsIPC(t *testing.T) {
	var s Stats
	if got := s.IPC(); got != 0 {
		t.Errorf("IPC of empty stats = %v, want 0", got)
	}
	s.Cycles = 200
	s.Issued = 90
	if got := s.IPC(); got != 0.45 {
		t.Errorf("IPC = %v, want 0.45", got)
	}
}
