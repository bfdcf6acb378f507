package pixel

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// FuzzNetpbm fuzzes the netpbm decoders with hostile input: whatever
// the bytes, decoding must never panic, and any image the decoder
// accepts must round-trip stably — its first re-encoding is a fixpoint
// of encode(decode(...)). (Exact byte identity with the INPUT is not
// required: a maxval below 255 rescales on first decode; from the
// first re-encoding onward the representation is canonical.)
func FuzzNetpbm(f *testing.F) {
	// Seed with well-formed tiny images of both formats.
	var pgm bytes.Buffer
	if err := WritePGM(&pgm, Synth(8, 4, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(pgm.Bytes())
	var ppm bytes.Buffer
	if err := WritePPM(&ppm, Synth(4, 4, 1), Synth(4, 4, 2), Synth(4, 4, 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(ppm.Bytes())
	// Header corners: comments, odd whitespace, small maxval (exercises
	// the rescale path), truncated pixels, hostile dimensions.
	f.Add([]byte("P5\n# comment\n 8 4\n255\n" + string(make([]byte, 32))))
	f.Add([]byte("P5 2 2 7\n\x00\x01\x02\x03"))
	f.Add([]byte("P6\n1 1\n255\n\xff\x00\x7f"))
	f.Add([]byte("P5\n65537 1\n255\n"))
	f.Add([]byte("P5\n-1 4\n255\n"))
	f.Add([]byte("P5\n999999999999999999999 1\n255\n"))
	f.Add([]byte("P5\n4 4\n0\n"))
	f.Add([]byte("P7\n4 4\n255\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		switch {
		case bytes.HasPrefix(data, []byte("P5")):
			im, err := ReadPGM(bytes.NewReader(data))
			if err != nil {
				return // rejected input: nothing to round-trip
			}
			var enc1 bytes.Buffer
			if err := WritePGM(&enc1, im); err != nil {
				t.Fatalf("decoded image does not re-encode: %v", err)
			}
			im2, err := ReadPGM(bytes.NewReader(enc1.Bytes()))
			if err != nil {
				t.Fatalf("re-encoding does not decode: %v", err)
			}
			if im2.W != im.W || im2.H != im.H {
				t.Fatalf("round trip changed dimensions: %dx%d -> %dx%d", im.W, im.H, im2.W, im2.H)
			}
			var enc2 bytes.Buffer
			if err := WritePGM(&enc2, im2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
				t.Fatal("PGM encoding is not a fixpoint after the first decode")
			}
		case bytes.HasPrefix(data, []byte("P6")):
			rp, gp, bp, err := ReadPPM(bytes.NewReader(data))
			if err != nil {
				return
			}
			var enc1 bytes.Buffer
			if err := WritePPM(&enc1, rp, gp, bp); err != nil {
				t.Fatalf("decoded image does not re-encode: %v", err)
			}
			r2, g2, b2, err := ReadPPM(bytes.NewReader(enc1.Bytes()))
			if err != nil {
				t.Fatalf("re-encoding does not decode: %v", err)
			}
			var enc2 bytes.Buffer
			if err := WritePPM(&enc2, r2, g2, b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
				t.Fatal("PPM encoding is not a fixpoint after the first decode")
			}
		default:
			// Not a netpbm magic: both decoders must reject, not panic.
			if _, err := ReadPGM(bytes.NewReader(data)); err == nil {
				t.Fatal("ReadPGM accepted a non-P5 input")
			}
			if _, _, _, err := ReadPPM(bytes.NewReader(data)); err == nil {
				t.Fatal("ReadPPM accepted a non-P6 input")
			}
		}
	})
}

// FuzzPGMFrames checks that the two views of a multi-frame stream
// agree: splitting the whole body (SplitPGMFrames) and reading it frame
// by frame (ReadPGMFrame, as the router's relay does) yield the same
// frames, or both reject the body. The streaming view applies the
// split's stream-level rules itself: at least one frame, one geometry.
func FuzzPGMFrames(f *testing.F) {
	var frame8x4, frame4x4 bytes.Buffer
	if err := WritePGM(&frame8x4, Synth(8, 4, 1)); err != nil {
		f.Fatal(err)
	}
	if err := WritePGM(&frame4x4, Synth(4, 4, 2)); err != nil {
		f.Fatal(err)
	}
	two := append(append([]byte{}, frame8x4.Bytes()...), frame8x4.Bytes()...)
	f.Add(two)
	f.Add(frame8x4.Bytes())
	f.Add(append(append([]byte{}, frame8x4.Bytes()...), frame4x4.Bytes()...)) // mixed geometry
	f.Add(two[:len(two)-3])                                                   // torn last frame
	f.Add(append(append([]byte{}, two...), 'x'))                              // trailing garbage
	f.Add([]byte("P5\n# comment\n2 2\n255\n\x00\x01\x02\x03P5 2 2 7\n\x04\x05\x06\x07"))
	f.Add([]byte("P6\n1 1\n255\n\xff\x00\x7f"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		split, _, _, splitErr := SplitPGMFrames(data, 0)

		var read [][]byte
		var readErr error
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, err := ReadPGMFrame(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
			read = append(read, frame)
		}
		readOK := readErr == nil && len(read) > 0
		for i := 1; readOK && i < len(read); i++ {
			_, w0, h0, _ := NetpbmDims(read[0])
			_, w, h, _ := NetpbmDims(read[i])
			readOK = w == w0 && h == h0
		}

		if (splitErr == nil) != readOK {
			t.Fatalf("split and streaming views disagree: split err %v, streaming err %v (%d frames)", splitErr, readErr, len(read))
		}
		if splitErr != nil {
			return
		}
		if len(split) != len(read) {
			t.Fatalf("split %d frames, streaming read %d", len(split), len(read))
		}
		for i := range split {
			if !bytes.Equal(split[i], read[i]) {
				t.Fatalf("frame %d differs between the split and streaming views", i)
			}
		}
	})
}
