package haar

import (
	"fmt"
	"math"
	"sort"

	"advdet/internal/img"
)

// Stump is one weak learner: sign(polarity * (feature - threshold)).
type Stump struct {
	Feature   Feature
	Threshold float64
	Polarity  float64 // +1 or -1
	Alpha     float64 // AdaBoost weight
}

// Classifier is a boosted ensemble of decision stumps over Haar
// features on a fixed winW x winH gray window.
type Classifier struct {
	WinW, WinH int
	Stumps     []Stump
	// Bias shifts the decision threshold (sum alpha_i h_i(x) > Bias).
	Bias float64
}

// TrainOptions configures boosting.
type TrainOptions struct {
	Rounds int // number of stumps (default 50)
	// FeatureStep controls the candidate-pool density (default 4).
	FeatureStep int
}

// DefaultTrainOptions returns a 50-round, step-4 configuration.
func DefaultTrainOptions() TrainOptions { return TrainOptions{Rounds: 50, FeatureStep: 4} }

// Train runs discrete AdaBoost over the labeled windows. Labels are
// +1/-1. All windows must share the classifier's geometry.
func Train(pos, neg []*img.Gray, o TrainOptions) (*Classifier, error) {
	if len(pos) == 0 || len(neg) == 0 {
		return nil, fmt.Errorf("haar: need both positive and negative windows")
	}
	winW, winH := pos[0].W, pos[0].H
	if o.Rounds <= 0 {
		o.Rounds = 50
	}
	if o.FeatureStep <= 0 {
		o.FeatureStep = 4
	}

	type sample struct {
		it    *Integral
		label float64
	}
	var samples []sample
	for _, p := range pos {
		if p.W != winW || p.H != winH {
			return nil, fmt.Errorf("haar: window size %dx%d, want %dx%d", p.W, p.H, winW, winH)
		}
		samples = append(samples, sample{NewIntegral(p), 1})
	}
	for _, n := range neg {
		if n.W != winW || n.H != winH {
			return nil, fmt.Errorf("haar: window size %dx%d, want %dx%d", n.W, n.H, winW, winH)
		}
		samples = append(samples, sample{NewIntegral(n), -1})
	}

	pool := GenerateFeatures(winW, winH, o.FeatureStep)
	if len(pool) == 0 {
		return nil, fmt.Errorf("haar: empty feature pool for %dx%d", winW, winH)
	}

	// Precompute all feature responses: pool x samples.
	n := len(samples)
	resp := make([][]float64, len(pool))
	for fi, f := range pool {
		row := make([]float64, n)
		for si, s := range samples {
			row[si] = f.Eval(s.it, 0, 0)
		}
		resp[fi] = row
	}

	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}

	c := &Classifier{WinW: winW, WinH: winH}
	order := make([]int, n)
	for round := 0; round < o.Rounds; round++ {
		bestErr := math.Inf(1)
		var best Stump
		for fi := range pool {
			row := resp[fi]
			// Sort samples by response to sweep thresholds.
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return row[order[a]] < row[order[b]] })
			// total positive/negative weight
			var wPos, wNeg float64
			for i, s := range samples {
				if s.label > 0 {
					wPos += w[i]
				} else {
					wNeg += w[i]
				}
			}
			// Sweep: err for threshold after position k with polarity
			// +1 means "predict + above threshold".
			// below holds weights of samples with response <= current.
			var belowPos, belowNeg float64
			for k := 0; k < n; k++ {
				i := order[k]
				if samples[i].label > 0 {
					belowPos += w[i]
				} else {
					belowNeg += w[i]
				}
				if k+1 < n && resp[fi][order[k+1]] == resp[fi][i] {
					continue // only split between distinct values
				}
				// polarity +1: positives above -> errors are positives
				// below + negatives above.
				errPlus := belowPos + (wNeg - belowNeg)
				errMinus := belowNeg + (wPos - belowPos)
				th := row[i]
				if k+1 < n {
					th = (row[i] + row[order[k+1]]) / 2
				}
				if errPlus < bestErr {
					bestErr = errPlus
					best = Stump{Feature: pool[fi], Threshold: th, Polarity: 1}
				}
				if errMinus < bestErr {
					bestErr = errMinus
					best = Stump{Feature: pool[fi], Threshold: th, Polarity: -1}
				}
			}
		}
		const eps = 1e-10
		if bestErr >= 0.5 {
			break // no weak learner better than chance
		}
		if bestErr < eps {
			bestErr = eps
		}
		best.Alpha = 0.5 * math.Log((1-bestErr)/bestErr)
		c.Stumps = append(c.Stumps, best)

		// Reweight.
		var sum float64
		for i, s := range samples {
			pred := best.predictRaw(resp[featureIndex(pool, best.Feature)][i])
			w[i] *= math.Exp(-best.Alpha * s.label * pred)
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		if bestErr <= eps {
			break // perfect stump; further rounds are redundant
		}
	}
	if len(c.Stumps) == 0 {
		return nil, fmt.Errorf("haar: boosting found no useful stump")
	}
	return c, nil
}

// featureIndex locates f in the pool (training-time helper).
func featureIndex(pool []Feature, f Feature) int {
	for i, p := range pool {
		if p == f {
			return i
		}
	}
	// lint:invariant the pool is the training set the feature was drawn from; absence is a training-loop bug
	panic("haar: feature not in pool")
}

func (s Stump) predictRaw(resp float64) float64 {
	if s.Polarity*(resp-s.Threshold) > 0 {
		return 1
	}
	return -1
}

// Score returns the ensemble margin of the window at (ox, oy) on an
// integral image.
func (c *Classifier) Score(it *Integral, ox, oy int) float64 {
	var s float64
	for _, st := range c.Stumps {
		s += st.Alpha * st.predictRaw(st.Feature.Eval(it, ox, oy))
	}
	return s - c.Bias
}

// Classify evaluates a single window image.
func (c *Classifier) Classify(g *img.Gray) bool {
	if g.W != c.WinW || g.H != c.WinH {
		g = img.ResizeGray(g, c.WinW, c.WinH)
	}
	return c.Score(NewIntegral(g), 0, 0) > 0
}
