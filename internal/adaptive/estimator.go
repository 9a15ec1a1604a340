package adaptive

import (
	"math"

	"advdet/internal/img"
)

// EstimateLux infers an ambient-light reading from the frame itself,
// for platforms without the external light-intensity signal the paper
// assumes (Options.SenseFromImage selects it). The estimate uses mean
// luminance with a saturated-pixel correction: at night, bright lamps
// inflate the mean without indicating ambient light, so saturated
// pixels are excluded.
//
// The luma->lux mapping is log-linear, calibrated against the
// synthetic scene generator's sensor model (see TestEstimateLux):
// ~15 luma ≈ 5 lux (dark), ~130 luma ≈ 15000 lux (day).
func EstimateLux(frame *img.RGB) float64 {
	return EstimateLuxGray(img.RGBToGray(frame))
}

// EstimateLuxGray is EstimateLux over an already converted gray frame,
// so a system that converts each frame once for its detectors senses
// from the same buffer.
func EstimateLuxGray(g *img.Gray) float64 {
	var sum, n float64
	for _, p := range g.Pix {
		if p >= 240 {
			continue // saturated light source, not ambient
		}
		sum += float64(p)
		n++
	}
	if n == 0 {
		return 1 // entire frame saturated: treat as a flash, not day
	}
	meanLuma := sum / n
	const (
		a = 0.03026 // log10(lux) slope per luma step
		b = 0.246   // intercept
	)
	return math.Pow(10, a*meanLuma+b)
}
