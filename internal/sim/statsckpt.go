package sim

// Checkpoint codec for Stats. Like Add, it discovers the int64
// leaves by reflection so a counter added to Stats (or the embedded
// dram/noc structs) can never be silently dropped from checkpoints —
// the encode and decode walks visit the same leaves in the same
// declaration order by construction. Unlike the fold walk, the codec
// includes the specially folded fields (Cycles, NoC.MaxLatency): a
// checkpoint is a verbatim image, not a fold.

import (
	"fmt"
	"reflect"

	"ipim/internal/ckpt"
)

// EncodeCkpt appends every int64 leaf of s to e in declaration order.
func (s *Stats) EncodeCkpt(e *ckpt.Enc) {
	walkAllInt64(reflect.ValueOf(s).Elem(), func(p *int64) { e.I64(*p) })
}

// DecodeCkpt reads every int64 leaf of s from d in declaration order,
// the exact inverse of EncodeCkpt. On a decoder error the partially
// written Stats must be discarded (callers decode into a scratch value
// and check d.Err before using it).
func (s *Stats) DecodeCkpt(d *ckpt.Dec) {
	walkAllInt64(reflect.ValueOf(s).Elem(), func(p *int64) { *p = d.I64() })
}

// walkAllInt64 invokes fn on every int64 leaf of v, recursing into
// arrays and embedded structs, in declaration order.
func walkAllInt64(v reflect.Value, fn func(*int64)) {
	switch v.Kind() {
	case reflect.Int64:
		fn(v.Addr().Interface().(*int64))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkAllInt64(v.Index(i), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkAllInt64(v.Field(i), fn)
		}
	default:
		panic(fmt.Sprintf("sim: Stats checkpoint walk hit unhandled kind %s — teach walkAllInt64 about it", v.Kind()))
	}
}
