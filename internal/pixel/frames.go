package pixel

// Multi-frame netpbm support for the streaming endpoint (POST
// /v1/stream): a stream body is a back-to-back concatenation of binary
// PGM frames, each self-delimiting (header + w*h pixel bytes). The
// helpers here delimit frames without decoding pixels, in a byte slice
// or off a stream, so the router can split a stream, forward a suffix
// of it after a worker failover, and relay the output frame by frame.
// They reuse the hardened header parsing of the full decoders (strict
// magic at byte 0, dimension and maxval limits), so a hostile stream
// cannot request an enormous allocation frame by frame any more than a
// single image can.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// NetpbmDims parses the header of the binary netpbm image at the front
// of b and returns its magic ("P5" or "P6") and dimensions without
// touching the pixel data. It applies the same validation as the full
// decoders; the router uses it to derive the artifact routing key from
// a request body it never decodes.
func NetpbmDims(b []byte) (magic string, w, h int, err error) {
	r := bytes.NewReader(b)
	magic, err = pbmMagic(r)
	if err != nil {
		return "", 0, 0, err
	}
	if magic != "P5" && magic != "P6" {
		return "", 0, 0, fmt.Errorf("pixel: not a binary PGM or PPM (magic %q)", magic)
	}
	w, h, _, err = pbmHeader(r)
	if err != nil {
		return "", 0, 0, err
	}
	return magic, w, h, nil
}

// pgmFrameHeader parses one stream frame's binary PGM header, leaving
// br at its first pixel byte. It is the one frame parser behind both
// the in-memory split and the streaming reader.
func pgmFrameHeader(br io.ByteReader) (w, h int, err error) {
	magic, err := pbmMagic(br)
	if err != nil {
		return 0, 0, err
	}
	if magic != "P5" {
		return 0, 0, fmt.Errorf("pixel: stream frame is not a binary PGM (magic %q)", magic)
	}
	w, h, _, err = pbmHeader(br)
	return w, h, err
}

// pgmFrameLen parses the binary PGM frame at the front of b and
// returns its dimensions and total encoded length (header + pixel
// bytes), so consecutive frames of a multi-frame stream can be split
// without decoding.
func pgmFrameLen(b []byte) (w, h, n int, err error) {
	r := bytes.NewReader(b)
	if w, h, err = pgmFrameHeader(r); err != nil {
		return 0, 0, 0, err
	}
	headerLen := len(b) - r.Len()
	n = headerLen + w*h
	if n > len(b) {
		return 0, 0, 0, fmt.Errorf("pixel: short PGM frame: header promises %d pixel bytes, %d remain", w*h, len(b)-headerLen)
	}
	return w, h, n, nil
}

// ReadPGMFrame reads the next frame of a multi-frame stream from br and
// returns its verbatim bytes (header + pixels), so a relay can forward
// whole frames without decoding them. It returns io.EOF, unwrapped, when
// br ends cleanly before the frame's first byte.
func ReadPGMFrame(br *bufio.Reader) ([]byte, error) {
	if _, err := br.Peek(1); err != nil {
		return nil, err
	}
	rec := &byteRecorder{r: br}
	w, h, err := pgmFrameHeader(rec)
	if err != nil {
		return nil, err
	}
	frame := append(rec.b, make([]byte, w*h)...)
	if _, err := io.ReadFull(br, frame[len(rec.b):]); err != nil {
		return nil, fmt.Errorf("pixel: short PGM frame: %w", err)
	}
	return frame, nil
}

// byteRecorder is an io.ByteReader that keeps every byte it reads.
type byteRecorder struct {
	r *bufio.Reader
	b []byte
}

func (br *byteRecorder) ReadByte() (byte, error) {
	c, err := br.r.ReadByte()
	if err == nil {
		br.b = append(br.b, c)
	}
	return c, err
}

// SplitPGMFrames splits a multi-frame stream body — back-to-back
// binary PGM frames — into per-frame subslices of b (no copying).
// Every frame must share the first frame's dimensions (one compiled
// artifact serves the whole stream); maxFrames > 0 bounds the frame
// count. The returned w, h are the common frame geometry.
func SplitPGMFrames(b []byte, maxFrames int) (frames [][]byte, w, h int, err error) {
	off := 0
	for off < len(b) {
		fw, fh, n, ferr := pgmFrameLen(b[off:])
		if ferr != nil {
			return nil, 0, 0, fmt.Errorf("pixel: stream frame %d: %w", len(frames), ferr)
		}
		if len(frames) == 0 {
			w, h = fw, fh
		} else if fw != w || fh != h {
			return nil, 0, 0, fmt.Errorf("pixel: stream frame %d is %dx%d, want %dx%d (all frames must share one geometry)",
				len(frames), fw, fh, w, h)
		}
		if maxFrames > 0 && len(frames) == maxFrames {
			return nil, 0, 0, fmt.Errorf("pixel: stream exceeds %d frames", maxFrames)
		}
		frames = append(frames, b[off:off+n])
		off += n
	}
	if len(frames) == 0 {
		return nil, 0, 0, fmt.Errorf("pixel: empty stream body (want one or more binary PGM frames)")
	}
	return frames, w, h, nil
}
