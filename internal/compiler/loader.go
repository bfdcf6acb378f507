package compiler

import (
	"encoding/binary"
	"fmt"
	"math"

	"ipim/internal/cube"
	"ipim/internal/pixel"
)

// Host-side data movement (paper Sec. VI: iPIM is a standalone
// accelerator; the host loads inputs and constant pools, launches the
// kernels, and reads results back).

// peCoords maps a machine-global PE index to (cube, vault, pg, pe).
func (p *Plan) peCoords(g int) (c, v, pg, pe int) {
	perVault := p.Cfg.PEsPerVault()
	vaultIdx := g / perVault
	local := g % perVault
	return vaultIdx / p.Cfg.VaultsPerCube, vaultIdx % p.Cfg.VaultsPerCube,
		local / p.Cfg.PEsPerPG, local % p.Cfg.PEsPerPG
}

// LoadInput writes the constant pool and the halo-extended input tiles
// into every participating PE bank, with clamp-to-edge replication at
// the image boundary.
func LoadInput(m *cube.Machine, art *Artifact, img *pixel.Image) error {
	p := art.Plan
	if img.W != p.ImgW || img.H != p.ImgH {
		return fmt.Errorf("compiler: image %dx%d does not match plan %dx%d", img.W, img.H, p.ImgW, p.ImgH)
	}
	// Constant pool, broadcast across lanes.
	pool := make([]byte, 16*len(p.Consts))
	for i, v := range p.Consts {
		for l := 0; l < 4; l++ {
			binary.LittleEndian.PutUint32(pool[16*i+4*l:], math.Float32bits(v))
		}
	}
	in := p.Input
	rowW := in.Width()
	tileBytes := make([]byte, in.Slot)
	for g := 0; g < p.NumPEs; g++ {
		c, v, pg, pe := p.peCoords(g)
		if len(pool) > 0 {
			if err := m.WriteBank(c, v, pg, pe, p.ConstBase, pool); err != nil {
				return err
			}
		}
		for k := 0; k < p.TilesPerPE; k++ {
			t := p.TileOf(g, k)
			ox, oy := p.TileOrigin(t)
			// Input-domain tile origin.
			ix := ox * in.SigmaX.Num / in.SigmaX.Den
			iy := oy * in.SigmaY.Num / in.SigmaY.Den
			for ly := in.Y.Lo; ly <= in.Y.Hi; ly++ {
				for lx := in.X.Lo; lx <= in.X.Hi; lx++ {
					val := img.At(ix+lx, iy+ly) // clamp at the edges
					off := ((ly-in.Y.Lo)*rowW + (lx - in.X.Lo)) * 4
					binary.LittleEndian.PutUint32(tileBytes[off:], math.Float32bits(val))
				}
			}
			addr := in.Base + uint32(k)*in.Slot
			if err := m.WriteBank(c, v, pg, pe, addr, tileBytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadOutput gathers the output image from the banks after a run.
func ReadOutput(m *cube.Machine, art *Artifact) (*pixel.Image, error) {
	p := art.Plan
	if p.Pipe.Histogram {
		return nil, fmt.Errorf("compiler: use ReadHistogram for histogram pipelines")
	}
	out := p.OutBuf
	if out == nil {
		return nil, fmt.Errorf("compiler: plan has no output buffer")
	}
	img := pixel.New(p.OutW, p.OutH)
	tw, th := p.Pipe.TileW, p.Pipe.TileH
	rowW := out.Width()
	for g := 0; g < p.NumPEs; g++ {
		c, v, pg, pe := p.peCoords(g)
		for k := 0; k < p.TilesPerPE; k++ {
			t := p.TileOf(g, k)
			ox, oy := p.TileOrigin(t)
			addr := out.Base + uint32(k)*out.Slot
			data, err := m.ReadBank(c, v, pg, pe, addr, int(out.Slot))
			if err != nil {
				return nil, err
			}
			for y := 0; y < th; y++ {
				for x := 0; x < tw; x++ {
					off := ((y-out.Y.Lo)*rowW + (x - out.X.Lo)) * 4
					bits := binary.LittleEndian.Uint32(data[off:])
					img.Set(ox+x, oy+y, math.Float32frombits(bits))
				}
			}
		}
	}
	return img, nil
}

// ReadHistogram gathers the histogram after a run. When the artifact
// carries a leader program, the machine-global total was assembled on
// the accelerator (vault 0's PE(0,0), via req) and is read directly;
// otherwise the host sums the per-vault totals.
func ReadHistogram(m *cube.Machine, art *Artifact) ([]int32, error) {
	p := art.Plan
	if !p.Pipe.Histogram {
		return nil, fmt.Errorf("compiler: %s is not a histogram pipeline", p.Pipe.Name)
	}
	bins := make([]int32, p.Pipe.Bins)
	if art.LeaderProg != nil {
		data, err := m.ReadBank(0, 0, 0, 0, p.HistGlobal, 4*p.Pipe.Bins)
		if err != nil {
			return nil, err
		}
		for i := range bins {
			bins[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		return bins, nil
	}
	for c := 0; c < p.Cfg.Cubes; c++ {
		for v := 0; v < p.Cfg.VaultsPerCube; v++ {
			data, err := m.ReadBank(c, v, 0, 0, p.HistFinal, 4*p.Pipe.Bins)
			if err != nil {
				return nil, err
			}
			for i := range bins {
				bins[i] += int32(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
	}
	return bins, nil
}
