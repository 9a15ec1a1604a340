package hog

import (
	"math"

	"advdet/internal/img"
)

// PIHOG implements the position-and-intensity-included HOG variant of
// Kim et al. (paper reference [8], "a new feature named the position
// and intensity included histogram of oriented gradients (PIHOG)
// which compensates the information loss involved in the construction
// of a histogram with position information"). Each cell's orientation
// histogram is augmented with:
//
//   - the gradient-mass centroid within the cell (2 values), restoring
//     the positional information a plain histogram discards, and
//   - the mean intensity of the cell (1 value), restoring absolute
//     brightness (useful at night where lamps are absolute cues).
//
// The augmented cells then go through the same block L2-Hys
// normalization; the position/intensity channels are normalized to
// [0, 1] ranges before concatenation so one channel cannot dominate.
type PIHOG struct {
	Config
	// PosWeight and IntWeight scale the auxiliary channels relative
	// to the orientation bins (defaults 0.5).
	PosWeight, IntWeight float64
}

// DefaultPIHOG returns the standard geometry with equal auxiliary
// weighting.
func DefaultPIHOG() PIHOG {
	return PIHOG{Config: DefaultConfig(), PosWeight: 0.5, IntWeight: 0.5}
}

// cellAux is the per-cell auxiliary channel count: cx, cy, intensity.
const cellAux = 3

// DescriptorLen returns the PIHOG feature length for a w x h window.
func (p PIHOG) DescriptorLen(w, h int) int {
	bw, bh := p.BlocksFor(w, h)
	perCell := p.Bins + cellAux
	return bw * bh * p.BlockCells * p.BlockCells * perCell
}

// Extract computes the PIHOG descriptor.
func (p PIHOG) Extract(g *img.Gray) []float64 {
	p.validate()
	if p.PosWeight <= 0 {
		p.PosWeight = 0.5
	}
	if p.IntWeight <= 0 {
		p.IntWeight = 0.5
	}
	cw, ch := p.CellsFor(g.W, g.H)
	perCell := p.Bins + cellAux
	cells := make([]float64, cw*ch*perCell)

	mag, ang := Gradients(g)
	binWidth := 180.0 / float64(p.Bins)
	cs := float64(p.CellSize)

	// Accumulators for centroid and intensity per cell.
	massX := make([]float64, cw*ch)
	massY := make([]float64, cw*ch)
	massT := make([]float64, cw*ch)
	intens := make([]float64, cw*ch)

	for y := 0; y < ch*p.CellSize; y++ {
		cy := y / p.CellSize
		for x := 0; x < cw*p.CellSize; x++ {
			cx := x / p.CellSize
			ci := cy*cw + cx
			i := y*g.W + x
			intens[ci] += float64(g.Pix[i])
			m := float64(mag[i])
			if m == 0 {
				continue
			}
			a := float64(ang[i]) / binWidth
			b0 := int(a)
			frac := a - float64(b0)
			b0 %= p.Bins
			b1 := (b0 + 1) % p.Bins
			base := ci * perCell
			cells[base+b0] += float64(m * (1 - frac))
			cells[base+b1] += float64(m * frac)
			// Position accumulation relative to the cell origin.
			massX[ci] += float64(m * (float64(x) - float64(cx)*cs))
			massY[ci] += float64(m * (float64(y) - float64(cy)*cs))
			massT[ci] += m
		}
	}

	// Fill auxiliary channels: centroid in [0,1]^2 (0.5 when the cell
	// has no gradient mass) and mean intensity in [0,1].
	area := cs * cs
	for ci := 0; ci < cw*ch; ci++ {
		base := ci*perCell + p.Bins
		px, py := 0.5, 0.5
		if massT[ci] > 0 {
			px = massX[ci] / massT[ci] / cs
			py = massY[ci] / massT[ci] / cs
		}
		cells[base] = p.PosWeight * clamp01(px)
		cells[base+1] = p.PosWeight * clamp01(py)
		cells[base+2] = p.IntWeight * (intens[ci] / area / 255)
	}

	// Block normalization over the augmented cells.
	bw, bh := p.BlocksFor(g.W, g.H)
	blockLen := p.BlockCells * p.BlockCells * perCell
	out := make([]float64, 0, bw*bh*blockLen)
	block := make([]float64, blockLen)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			k := 0
			for dy := 0; dy < p.BlockCells; dy++ {
				for dx := 0; dx < p.BlockCells; dx++ {
					cell := ((by*p.BlockStride+dy)*cw + bx*p.BlockStride + dx) * perCell
					copy(block[k:k+perCell], cells[cell:cell+perCell])
					k += perCell
				}
			}
			l2hys(block, p.ClipL2Hys)
			out = append(out, block...)
		}
	}
	return out
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}
