// Package ckpt defines the container format and binary codec for
// machine checkpoints: a versioned, CRC-guarded envelope around an
// opaque payload, plus the little-endian encoder/decoder the simulator
// layers use to serialize their state into that payload.
//
// The package sits at the bottom of the dependency graph (stdlib only),
// so every layer — dram, noc, vault, cube — can speak the codec without
// import cycles; the cube package owns the payload schema (what state
// goes where), this package owns the bytes (framing, integrity,
// bounds-checked primitive decoding).
//
// Container layout:
//
//	offset  size  field
//	0       8     magic "IPIMCKPT"
//	8       4     format version (little-endian uint32)
//	12      8     payload length (little-endian uint64)
//	20      n     payload
//	20+n    4     CRC-32C (Castagnoli) of bytes [0, 20+n)
//
// Every decoding error is typed: ErrTruncated for torn tails and short
// reads, ErrVersion for schema-version mismatches, and ErrCorrupt for
// bad magic, CRC mismatches and malformed payloads (ErrTruncated wraps
// ErrCorrupt, so errors.Is(err, ErrCorrupt) matches both). Decoders
// never panic on hostile input — the FuzzCheckpointDecode target in
// internal/cube pins this.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Version is the current checkpoint format version. Bump it on any
// payload schema change; readers reject other versions with ErrVersion.
// Version 4 holds DRAM controller state verbatim, in absolute cycles;
// version 3 held it rebased to the vault clock.
const Version = 4

// magic identifies a checkpoint container.
const magic = "IPIMCKPT"

// headerLen is the fixed container prefix: magic + version + length.
const headerLen = len(magic) + 4 + 8

// maxPayload bounds a declared payload length so hostile headers cannot
// drive huge allocations. Real checkpoints are dominated by materialized
// bank bytes; 1 GiB covers any configuration this simulator builds.
const maxPayload = 1 << 30

// Typed decoding errors. ErrTruncated and ErrVersion wrap ErrCorrupt
// where that reading makes sense, so a single errors.Is(err, ErrCorrupt)
// catches every "this is not a restorable checkpoint" case.
var (
	// ErrCorrupt marks a checkpoint whose bytes cannot be a valid
	// container or payload: bad magic, CRC mismatch, or malformed
	// payload structure.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

	// ErrTruncated marks a checkpoint cut short — a torn tail from a
	// crash mid-write, or any read that ends before the declared length.
	ErrTruncated = fmt.Errorf("truncated checkpoint: %w", ErrCorrupt)

	// ErrVersion marks a checkpoint written under a different schema
	// version than this build understands.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps a payload in the container format and returns the full
// checkpoint bytes: header, payload, CRC trailer.
func Seal(payload []byte) []byte {
	return Build(func(e *Enc) { e.raw(payload) })
}

// Build returns the sealed container of the payload encode writes, built
// in one buffer. encode runs twice and must write the same bytes both
// times: the first pass only counts them, so the second writes into a
// buffer of the container's exact size, behind the reserved header, and
// the header and CRC trailer are then filled in place.
func Build(encode func(*Enc)) []byte {
	sizer := Enc{sizing: true}
	encode(&sizer)
	e := Enc{buf: make([]byte, headerLen, headerLen+sizer.n+4)}
	encode(&e)
	out := e.buf
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[len(magic):], Version)
	binary.LittleEndian.PutUint64(out[len(magic)+4:], uint64(len(out)-headerLen))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// Open validates a sealed container held fully in memory and returns
// its payload (aliasing data, not a copy).
func Open(data []byte) ([]byte, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("ckpt: %d-byte container: %w", len(data), ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic: %w", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(data[len(magic)+4:])
	if n > maxPayload {
		return nil, fmt.Errorf("ckpt: declared payload of %d bytes: %w", n, ErrCorrupt)
	}
	total := headerLen + int(n) + 4
	if len(data) < total {
		return nil, fmt.Errorf("ckpt: container ends at %d of %d bytes: %w", len(data), total, ErrTruncated)
	}
	if len(data) > total {
		return nil, fmt.Errorf("ckpt: %d bytes after the CRC trailer: %w", len(data)-total, ErrCorrupt)
	}
	body := data[:headerLen+int(n)]
	want := binary.LittleEndian.Uint32(data[headerLen+int(n):])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("ckpt: CRC mismatch (got %#x, want %#x): %w", got, want, ErrCorrupt)
	}
	return data[headerLen : headerLen+int(n)], nil
}

// Read consumes r to its end and returns the payload of the one sealed
// container it holds. The read is bounded by the largest container Open
// accepts.
func Read(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, int64(headerLen+maxPayload+4+1)))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading container: %v: %w", err, ErrTruncated)
	}
	return Open(data)
}

// WriteFile atomically replaces path with one sealed checkpoint: it
// writes a temp file in the same directory, syncs it and renames it
// over path, so a crash or power loss at any point leaves the previous
// file or the new one, never a torn one.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Enc is an append-only little-endian encoder building a payload.
// The zero value is ready to use.
type Enc struct {
	buf []byte
	// sizing marks Build's first pass: it writes nothing and n counts
	// the bytes the payload takes.
	sizing bool
	n      int
}

// Bytes returns the encoded payload so far.
func (e *Enc) Bytes() []byte { return e.buf }

// raw appends b as is.
func (e *Enc) raw(b []byte) {
	if e.sizing {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) {
	if e.sizing {
		e.n++
		return
	}
	e.buf = append(e.buf, v)
}

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	if e.sizing {
		e.n += 4
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes32 appends a length-prefixed byte slice (uint32 length).
func (e *Enc) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.raw(b)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// I64s appends a length-prefixed []int64.
func (e *Enc) I64s(v []int64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I64(x)
	}
}

// I32s appends a length-prefixed []int32.
func (e *Enc) I32s(v []int32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
	}
}

// Bools appends a length-prefixed []bool.
func (e *Enc) Bools(v []bool) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Bool(x)
	}
}

// Dec decodes a payload produced by Enc. Errors are sticky: after the
// first failure every subsequent read returns zero values and Err()
// keeps reporting the failure, so decoders can run a straight-line
// sequence of reads and check once at the end. All failures are typed
// (ErrTruncated via ErrCorrupt), never panics.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err returns the first decoding failure, or nil.
func (d *Dec) Err() error { return d.err }

// Len returns the number of bytes not yet consumed.
func (d *Dec) Len() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Dec) fail(context string) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: decoding %s at offset %d: %w", context, d.off, ErrTruncated)
	}
}

// take consumes n bytes, or fails.
func (d *Dec) take(n int, context string) []byte {
	if d.err != nil || n < 0 || d.Len() < n {
		d.fail(context)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean. Any nonzero byte is true.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64 by bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// count reads a uint32 length prefix, bounding it by the remaining
// bytes at elemSize bytes per element so hostile prefixes cannot drive
// huge allocations.
func (d *Dec) count(elemSize int, context string) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > d.Len()/elemSize) {
		d.fail(context + " length")
		return 0
	}
	return n
}

// Bytes32 reads a length-prefixed byte slice (copied out).
func (d *Dec) Bytes32() []byte {
	n := d.count(1, "bytes")
	b := d.take(n, "bytes")
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.count(1, "string")
	b := d.take(n, "string")
	return string(b)
}

// I64s reads a length-prefixed []int64.
func (d *Dec) I64s() []int64 {
	n := d.count(8, "[]int64")
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}

// I32s reads a length-prefixed []int32.
func (d *Dec) I32s() []int32 {
	n := d.count(4, "[]int32")
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.U32())
	}
	return out
}

// Bools reads a length-prefixed []bool.
func (d *Dec) Bools() []bool {
	n := d.count(1, "[]bool")
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}
