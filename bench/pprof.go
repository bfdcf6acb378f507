package main

// Flat CPU-profile shares by layer. The profile is the standard
// runtime/pprof output (go tool pprof -top reads it); this file decodes
// just enough of its protobuf encoding to attribute each sample to the
// Go package of its innermost function.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuGroups are the reported layers, in output order. Simulator
// packages first (isa holds the ALU the processing engines evaluate),
// then the host layers; gc is any sample with a garbage-collector frame
// on its stack, other is everything else.
var cpuGroups = []string{"vault", "engine", "isa", "dram", "noc", "cube", "compiler", "pixel", "serve", "fleet", "net_http", "gc", "other"}

// cpuGroup maps a function's package to its layer.
func cpuGroup(pkg string) string {
	switch pkg {
	case "ipim/internal/vault", "ipim/internal/engine", "ipim/internal/isa", "ipim/internal/dram", "ipim/internal/noc",
		"ipim/internal/cube", "ipim/internal/compiler", "ipim/internal/pixel", "ipim/internal/serve",
		"ipim/internal/fleet":
		return strings.TrimPrefix(pkg, "ipim/internal/")
	case "ipim/internal/halide":
		return "compiler" // the compiler's frontend
	case "net", "internal/poll", "syscall", "internal/runtime/syscall":
		return "net_http"
	}
	if strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/") {
		return "net_http"
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "ipim/internal/vault.(*Vault).issue" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// isGCFrame reports garbage-collector work: background and assist
// marking, sweeping, scavenging and write barriers.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.sweepone", "runtime.scanobject", "runtime.wbBuf"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuShares returns each group's share of the profile's samples and the
// sample count.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []struct {
			locs  []uint64
			count int64
		}
	)
	err = pbFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var locIDs, values []uint64
			if err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					locIDs = appendPacked(locIDs, v, d)
				case 2:
					values = appendPacked(values, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				samples = append(samples, struct {
					locs  []uint64
					count int64
				}{locIDs, int64(values[0])})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		group := "other"
		for li, loc := range s.locs {
			for fi, fn := range locs[loc] {
				n := name(fn)
				if isGCFrame(n) {
					group = "gc"
					break
				}
				if li == 0 && fi == 0 {
					group = cpuGroup(funcPackage(n))
				}
			}
			if group == "gc" {
				break
			}
		}
		counts[group] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, g := range cpuGroups {
		if total > 0 {
			shares[g] = float64(counts[g]) / float64(total)
		}
	}
	return shares, total, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errors.New("pprof: unsupported protobuf wire type")
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning 0 bytes read on truncation.
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendPacked appends a repeated varint field given either one value
// (unpacked encoding) or a packed run.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
