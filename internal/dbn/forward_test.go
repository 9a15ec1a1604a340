package dbn

import (
	"math"
	"testing"

	"advdet/internal/rbm"
	"advdet/internal/synth"
)

// refForward is the allocating forward pass the network shipped with
// before forward moved into a caller-owned Scratch, kept verbatim as
// the oracle: the Scratch pass must reproduce it bit for bit.
func refForward(n *Network, x []float64) (acts [][]float64, probs []float64) {
	acts = make([][]float64, len(n.Sizes))
	acts[0] = x
	for l := 0; l+1 < len(n.Sizes); l++ {
		in := acts[l]
		out := make([]float64, n.Sizes[l+1])
		w := n.W[l]
		nvl := n.Sizes[l]
		for h := range out {
			s := n.B[l][h]
			row := w[h*nvl : (h+1)*nvl]
			for i, v := range in {
				s += row[i] * v
			}
			out[h] = 1 / (1 + math.Exp(-s))
		}
		acts[l+1] = out
	}
	top := acts[len(acts)-1]
	logits := make([]float64, NumClasses)
	tw := len(top)
	maxL := math.Inf(-1)
	for c := 0; c < NumClasses; c++ {
		s := n.OutB[c]
		row := n.OutW[c*tw : (c+1)*tw]
		for i, v := range top {
			s += row[i] * v
		}
		logits[c] = s
		if s > maxL {
			maxL = s
		}
	}
	var sum float64
	probs = make([]float64, NumClasses)
	for c, l := range logits {
		probs[c] = math.Exp(l - maxL)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
	return acts, probs
}

// refFineTune is the per-sample-allocating backpropagation the network
// shipped with, kept verbatim as the oracle for fineTune.
func refFineTune(n *Network, X [][]float64, labels []int, cfg Config, rng rbm.RNG) {
	nSamples := len(X)
	order := make([]int, nSamples)
	for i := range order {
		order[i] = i
	}
	top := n.Sizes[len(n.Sizes)-1]
	for epoch := 0; epoch < cfg.FineTuneIter; epoch++ {
		for i := nSamples - 1; i > 0; i-- {
			j := int(rng.Float64() * float64(i+1))
			if j > i {
				j = i
			}
			order[i], order[j] = order[j], order[i]
		}
		lr := cfg.FineTuneLR / (1 + 0.05*float64(epoch))
		for _, idx := range order {
			x, label := X[idx], labels[idx]
			acts, probs := refForward(n, x)
			topAct := acts[len(acts)-1]
			dOut := make([]float64, NumClasses)
			copy(dOut, probs)
			dOut[label] -= 1
			dHidden := make([]float64, top)
			for c := 0; c < NumClasses; c++ {
				row := n.OutW[c*top : (c+1)*top]
				for i := range dHidden {
					dHidden[i] += dOut[c] * row[i]
				}
			}
			for c := 0; c < NumClasses; c++ {
				row := n.OutW[c*top : (c+1)*top]
				for i, a := range topAct {
					row[i] -= lr * dOut[c] * a
				}
				n.OutB[c] -= lr * dOut[c]
			}
			delta := dHidden
			for l := len(n.Sizes) - 2; l >= 0; l-- {
				in := acts[l]
				out := acts[l+1]
				nvl := n.Sizes[l]
				for h := range delta {
					delta[h] *= out[h] * (1 - out[h])
				}
				var prev []float64
				if l > 0 {
					prev = make([]float64, nvl)
					for h := range delta {
						row := n.W[l][h*nvl : (h+1)*nvl]
						for i := range prev {
							prev[i] += delta[h] * row[i]
						}
					}
				}
				for h := range delta {
					row := n.W[l][h*nvl : (h+1)*nvl]
					d := lr * delta[h]
					for i, v := range in {
						row[i] -= d * v
					}
					n.B[l][h] -= d
				}
				delta = prev
			}
		}
	}
}

// randomNetwork returns a network of the given topology with weights
// drawn from N(0, scale²), so activations span the sigmoid's range.
func randomNetwork(rng *synth.RNG, sizes []int, scale float64) *Network {
	n := &Network{Sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		w := make([]float64, sizes[l]*sizes[l+1])
		for i := range w {
			w[i] = scale * rng.Norm()
		}
		b := make([]float64, sizes[l+1])
		for i := range b {
			b[i] = scale * rng.Norm()
		}
		n.W, n.B = append(n.W, w), append(n.B, b)
	}
	top := sizes[len(sizes)-1]
	n.OutW = make([]float64, NumClasses*top)
	for i := range n.OutW {
		n.OutW[i] = scale * rng.Norm()
	}
	n.OutB = make([]float64, NumClasses)
	for i := range n.OutB {
		n.OutB[i] = scale * rng.Norm()
	}
	return n
}

func cloneNetwork(n *Network) *Network {
	cp := &Network{Sizes: append([]int(nil), n.Sizes...), OutW: append([]float64(nil), n.OutW...), OutB: append([]float64(nil), n.OutB...)}
	for l := range n.W {
		cp.W = append(cp.W, append([]float64(nil), n.W[l]...))
		cp.B = append(cp.B, append([]float64(nil), n.B[l]...))
	}
	return cp
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestProbsMatchReferenceForward pins the Scratch forward pass to the
// reference bit for bit on random networks and random inputs (binary
// windows, as the scan feeds, and arbitrary reals), with one Scratch
// reused across inputs and across topologies.
func TestProbsMatchReferenceForward(t *testing.T) {
	rng := synth.NewRNG(41)
	var s Scratch
	for _, sizes := range [][]int{{81, 20, 8}, {81, 8}, {81, 32, 16, 8}, {5, 3}} {
		for _, scale := range []float64{0.1, 1, 6} {
			n := randomNetwork(rng, sizes, scale)
			for k := 0; k < 200; k++ {
				x := make([]float64, sizes[0])
				for i := range x {
					if k%2 == 0 {
						x[i] = float64(rng.Intn(2))
					} else {
						x[i] = 4 * rng.Norm()
					}
				}
				acts, want := refForward(n, x)
				if got := n.Probs(x); !sameBits(got, want) {
					t.Fatalf("sizes %v scale %v input %d: Probs %v, reference %v", sizes, scale, k, got, want)
				}
				class, prob := n.ClassifyWith(&s, x)
				if !sameBits(s.probs[:], want) {
					t.Fatalf("sizes %v scale %v input %d: reused Scratch probs %v, reference %v", sizes, scale, k, s.probs, want)
				}
				for l := range acts {
					if !sameBits(s.acts[l], acts[l]) {
						t.Fatalf("sizes %v input %d: layer %d activations differ", sizes, k, l)
					}
				}
				best := 0
				for c := 1; c < NumClasses; c++ {
					if want[c] > want[best] {
						best = c
					}
				}
				if class != best || math.Float64bits(prob) != math.Float64bits(want[best]) {
					t.Fatalf("ClassifyWith = (%d, %v), reference (%d, %v)", class, prob, best, want[best])
				}
			}
		}
	}
}

// TestFineTuneMatchesReference: backpropagation over the shared
// forward pass and reused delta buffers trains exactly the weights the
// allocating reference trains from the same start and RNG stream.
func TestFineTuneMatchesReference(t *testing.T) {
	X, labels := synth.TaillightWindowSet(12, 10)
	start := randomNetwork(synth.NewRNG(13), []int{81, 20, 8}, 0.3)
	cfg := quickConfig()
	cfg.FineTuneLR = 0.3
	cfg.FineTuneIter = 4
	got, want := cloneNetwork(start), cloneNetwork(start)
	got.fineTune(X, labels, cfg, synth.NewRNG(14))
	refFineTune(want, X, labels, cfg, synth.NewRNG(14))
	for l := range want.W {
		if !sameBits(got.W[l], want.W[l]) || !sameBits(got.B[l], want.B[l]) {
			t.Fatalf("layer %d weights differ from the reference fine-tune", l)
		}
	}
	if !sameBits(got.OutW, want.OutW) || !sameBits(got.OutB, want.OutB) {
		t.Fatal("output layer differs from the reference fine-tune")
	}
}

// TestClassifyWithAllocatesNothing: a warmed Scratch classifies
// without allocating.
func TestClassifyWithAllocatesNothing(t *testing.T) {
	n := randomNetwork(synth.NewRNG(15), []int{81, 20, 8}, 1)
	x := make([]float64, 81)
	var s Scratch
	n.ClassifyWith(&s, x)
	if a := testing.AllocsPerRun(100, func() { n.ClassifyWith(&s, x) }); a != 0 {
		t.Fatalf("ClassifyWith allocates %v objects per call", a)
	}
}
