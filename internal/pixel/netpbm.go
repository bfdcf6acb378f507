package pixel

// Netpbm I/O: binary PGM (P5, grayscale) and PPM (P6, RGB as three
// planes), so the examples and ipim-run can process real images with
// only the standard library. Pixels map linearly between [0, maxval]
// bytes and [0, 1] float32.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Header limits. The readers are network-facing through the serving
// daemon (internal/serve), so a hostile header must not be able to
// request an enormous allocation: dimensions are capped well above any
// real workload (the paper's DIV8K frames are 8192×5464 ≈ 45 MPix)
// but far below anything that could exhaust memory.
const (
	maxPBMDim    = 1 << 16 // per-dimension cap
	maxPBMPixels = 1 << 26 // ≈ 67 MPix → 256 MB of float32 per plane
)

// ReadPGM decodes a binary (P5) PGM image into a [0,1] float plane.
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := pbmMagic(br)
	if err != nil {
		return nil, err
	}
	if magic != "P5" {
		return nil, fmt.Errorf("pixel: not a binary PGM (magic %q)", magic)
	}
	w, h, maxv, err := pbmHeader(br)
	if err != nil {
		return nil, err
	}
	im := New(w, h)
	buf := make([]byte, w*h)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("pixel: short PGM pixel data: %w", err)
	}
	scale := 1 / float32(maxv)
	for i, b := range buf {
		im.Pix[i] = float32(b) * scale
	}
	return im, nil
}

// WritePGM encodes the plane as binary (P5) PGM, clamping to [0,1].
func WritePGM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.W, im.H)
	for _, v := range im.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		bw.WriteByte(byte(v*255 + 0.5))
	}
	return bw.Flush()
}

// ReadPPM decodes a binary (P6) PPM image into R, G, B planes.
func ReadPPM(r io.Reader) (rp, gp, bp *Image, err error) {
	br := bufio.NewReader(r)
	magic, err := pbmMagic(br)
	if err != nil {
		return nil, nil, nil, err
	}
	if magic != "P6" {
		return nil, nil, nil, fmt.Errorf("pixel: not a binary PPM (magic %q)", magic)
	}
	w, h, maxv, err := pbmHeader(br)
	if err != nil {
		return nil, nil, nil, err
	}
	rp, gp, bp = New(w, h), New(w, h), New(w, h)
	buf := make([]byte, 3*w*h)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, nil, nil, fmt.Errorf("pixel: short PPM pixel data: %w", err)
	}
	scale := 1 / float32(maxv)
	for i := 0; i < w*h; i++ {
		rp.Pix[i] = float32(buf[3*i]) * scale
		gp.Pix[i] = float32(buf[3*i+1]) * scale
		bp.Pix[i] = float32(buf[3*i+2]) * scale
	}
	return rp, gp, bp, nil
}

// WritePPM encodes three planes as binary (P6) PPM.
func WritePPM(w io.Writer, rp, gp, bp *Image) error {
	if rp.W != gp.W || rp.W != bp.W || rp.H != gp.H || rp.H != bp.H {
		return fmt.Errorf("pixel: PPM planes differ in shape")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P6\n%d %d\n255\n", rp.W, rp.H)
	clamp := func(v float32) byte {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		return byte(v*255 + 0.5)
	}
	for i := range rp.Pix {
		bw.WriteByte(clamp(rp.Pix[i]))
		bw.WriteByte(clamp(gp.Pix[i]))
		bw.WriteByte(clamp(bp.Pix[i]))
	}
	return bw.Flush()
}

// pbmMagic reads the two magic bytes, which the netpbm spec requires
// at the very start of the stream — no leading whitespace or comments
// (pbmToken would skip them, letting " P5 ..." impersonate a PGM).
func pbmMagic(br io.ByteReader) (string, error) {
	var m [2]byte
	for i := range m {
		b, err := br.ReadByte()
		if err != nil {
			return "", fmt.Errorf("pixel: netpbm magic: %w", err)
		}
		m[i] = b
	}
	return string(m[:]), nil
}

// pbmToken reads the next whitespace-delimited token, skipping
// '#'-comments.
func pbmToken(br io.ByteReader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if len(tok) > 0 && err == io.EOF {
				return string(tok), nil
			}
			return "", fmt.Errorf("pixel: netpbm header: %w", err)
		}
		switch {
		case b == '#':
			for b != '\n' {
				if b, err = br.ReadByte(); err != nil {
					return "", fmt.Errorf("pixel: netpbm comment: %w", err)
				}
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

func pbmHeader(br io.ByteReader) (w, h, maxv int, err error) {
	read := func() (int, error) {
		tok, err := pbmToken(br)
		if err != nil {
			return 0, err
		}
		// strconv.Atoi is strict: "12abc", "+3", "1e3" are rejected
		// (Sscanf would silently accept a numeric prefix).
		v, err := strconv.Atoi(tok)
		if err != nil {
			return 0, fmt.Errorf("pixel: bad netpbm header token %q", tok)
		}
		return v, nil
	}
	if w, err = read(); err != nil {
		return
	}
	if h, err = read(); err != nil {
		return
	}
	if maxv, err = read(); err != nil {
		return
	}
	if w <= 0 || h <= 0 {
		err = fmt.Errorf("pixel: bad netpbm dimensions %dx%d", w, h)
		return
	}
	// Division instead of w*h keeps the check overflow-proof.
	if w > maxPBMDim || h > maxPBMDim || w > maxPBMPixels/h {
		err = fmt.Errorf("pixel: netpbm image %dx%d exceeds the %d-pixel limit", w, h, maxPBMPixels)
		return
	}
	if maxv <= 0 || maxv > 255 {
		err = fmt.Errorf("pixel: unsupported netpbm maxval %d", maxv)
		return
	}
	return
}
