package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeEverything exercises every Enc method once and returns the
// payload plus the expected decoded values.
func encodeEverything() []byte {
	var e Enc
	e.U8(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.Int(7)
	e.F64(math.Pi)
	e.Bytes32([]byte{1, 2, 3})
	e.String("hello")
	e.I64s([]int64{-1, 0, 1})
	e.I32s([]int32{-2, 3})
	e.Bools([]bool{true, false, true})
	return e.Bytes()
}

func TestEncDecRoundTrip(t *testing.T) {
	d := NewDec(encodeEverything())
	if got := d.U8(); got != 0xAB {
		t.Errorf("U8 = %#x, want 0xAB", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip broke")
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.I64s(); len(got) != 3 || got[0] != -1 || got[2] != 1 {
		t.Errorf("I64s = %v", got)
	}
	if got := d.I32s(); len(got) != 2 || got[0] != -2 || got[1] != 3 {
		t.Errorf("I32s = %v", got)
	}
	if got := d.Bools(); len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Errorf("Bools = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err() = %v after a clean decode", d.Err())
	}
	if d.Len() != 0 {
		t.Errorf("Len() = %d, want 0 after consuming everything", d.Len())
	}
}

func TestDecEmptySlices(t *testing.T) {
	var e Enc
	e.Bytes32(nil)
	e.String("")
	e.I64s(nil)
	e.I32s(nil)
	e.Bools(nil)
	d := NewDec(e.Bytes())
	if got := d.Bytes32(); got != nil {
		t.Errorf("empty Bytes32 = %v, want nil", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := d.I64s(); got != nil {
		t.Errorf("empty I64s = %v", got)
	}
	if got := d.I32s(); got != nil {
		t.Errorf("empty I32s = %v", got)
	}
	if got := d.Bools(); got != nil {
		t.Errorf("empty Bools = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err() = %v", d.Err())
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{1, 2}) // too short for a u32
	if got := d.U32(); got != 0 {
		t.Errorf("failed U32 = %d, want 0", got)
	}
	first := d.Err()
	if !errors.Is(first, ErrTruncated) || !errors.Is(first, ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrTruncated wrapping ErrCorrupt", first)
	}
	// Every subsequent read keeps returning zero values and the same error.
	if d.U64() != 0 || d.String() != "" || d.I64s() != nil {
		t.Error("reads after a failure must return zero values")
	}
	if d.Err() != first {
		t.Errorf("Err() changed after the first failure: %v", d.Err())
	}
}

func TestDecHostileLengthPrefix(t *testing.T) {
	// A length prefix claiming far more elements than the remaining
	// bytes could hold must fail, not allocate.
	var e Enc
	e.U32(1 << 30)
	for _, decode := range []func(*Dec){
		func(d *Dec) { d.I64s() },
		func(d *Dec) { d.I32s() },
		func(d *Dec) { d.Bools() },
		func(d *Dec) { d.Bytes32() },
		func(d *Dec) { _ = d.String() },
	} {
		d := NewDec(e.Bytes())
		decode(d)
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("hostile length prefix: Err() = %v, want ErrCorrupt", d.Err())
		}
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("the machine state")
	sealed := Seal(payload)
	got, err := Open(sealed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Open = %q, want %q", got, payload)
	}
	// Empty payloads are legal.
	if got, err := Open(Seal(nil)); err != nil || len(got) != 0 {
		t.Errorf("Open(Seal(nil)) = %v, %v", got, err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	payload := []byte{0, 1, 2, 3, 4}
	var buf bytes.Buffer
	if _, err := buf.Write(Seal(payload)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Read = %v, want %v", got, payload)
	}
}

func TestOpenRejections(t *testing.T) {
	sealed := Seal([]byte("payload"))
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short container", sealed[:headerLen], ErrTruncated},
		{"empty", nil, ErrTruncated},
		{"bad magic", append([]byte("NOTACKPT"), sealed[8:]...), ErrCorrupt},
		{"torn tail", sealed[:len(sealed)-3], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), sealed...), 0xFF), ErrCorrupt},
	}
	ver := append([]byte(nil), sealed...)
	binary.LittleEndian.PutUint32(ver[len(magic):], Version+1)
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"version mismatch", ver, ErrVersion})

	huge := append([]byte(nil), sealed...)
	binary.LittleEndian.PutUint64(huge[len(magic)+4:], maxPayload+1)
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"oversize declared payload", huge, ErrCorrupt})

	crc := append([]byte(nil), sealed...)
	crc[headerLen] ^= 0x01 // flip one payload bit, CRC now mismatches
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"CRC mismatch", crc, ErrCorrupt})

	for _, tc := range cases {
		if _, err := Open(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: Open = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Every rejection must also satisfy the blanket ErrCorrupt match,
	// except the version mismatch (a valid container, wrong schema).
	for _, tc := range cases {
		if tc.want == ErrVersion {
			continue
		}
		if _, err := Open(tc.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: not matched by errors.Is(_, ErrCorrupt)", tc.name)
		}
	}
}

func TestReadRejections(t *testing.T) {
	sealed := Seal([]byte("xyz"))
	if _, err := Read(strings.NewReader("")); !errors.Is(err, ErrTruncated) {
		t.Errorf("Read(empty) = %v, want ErrTruncated", err)
	}
	if _, err := Read(bytes.NewReader(sealed[:len(sealed)-2])); !errors.Is(err, ErrTruncated) {
		t.Errorf("Read(torn) = %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), sealed...)
	copy(bad, "WRONGMAG")
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Read(bad magic) = %v, want ErrCorrupt", err)
	}
	ver := append([]byte(nil), sealed...)
	binary.LittleEndian.PutUint32(ver[len(magic):], Version+7)
	if _, err := Read(bytes.NewReader(ver)); !errors.Is(err, ErrVersion) {
		t.Errorf("Read(version) = %v, want ErrVersion", err)
	}
	huge := append([]byte(nil), sealed...)
	binary.LittleEndian.PutUint64(huge[len(magic)+4:], maxPayload+1)
	if _, err := Read(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Read(oversize) = %v, want ErrCorrupt", err)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for _, payload := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := WriteFile(path, Seal(payload)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Open(data); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Open after WriteFile = %q, %v; want %q", got, err, payload)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only run.ckpt (no temp file left behind)", names)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "run.ckpt"), Seal(nil)); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}
