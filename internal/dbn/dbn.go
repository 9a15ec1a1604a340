// Package dbn implements the paper's deep belief network for taillight
// detection: a stack of greedily pretrained RBMs (81 visible units for
// a 9x9 binary window, hidden layers of 20 and 8 units) topped with a
// 4-way softmax layer that "determines the size and shape class of
// taillights" (§III-B), fine-tuned end to end by backpropagation.
//
// lint:detpath
package dbn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"advdet/internal/rbm"
)

// The paper's architecture constants.
const (
	// Window is the side of the sliding window (9x9 = 81 visible units).
	Window = 9
	// Stride is the sliding-window step.
	Stride = 2
	// NumClasses is the size/shape output layer width.
	NumClasses = 4
)

// Class labels for the 4 output nodes.
const (
	ClassNone   = 0 // no taillight in the window
	ClassSmall  = 1 // small/far lamp
	ClassMedium = 2 // medium lamp
	ClassLarge  = 3 // large/near lamp
)

// ClassName returns a human-readable label.
func ClassName(c int) string {
	switch c {
	case ClassNone:
		return "none"
	case ClassSmall:
		return "small"
	case ClassMedium:
		return "medium"
	case ClassLarge:
		return "large"
	}
	return "invalid"
}

// Network is the stacked model. Hidden layers use logistic units whose
// weights are initialized by RBM pretraining; OutW/OutB form the
// softmax classification layer.
type Network struct {
	Sizes []int       // e.g. [81 20 8]
	W     [][]float64 // W[l] is row-major [Sizes[l+1]][Sizes[l]]
	B     [][]float64 // B[l] has Sizes[l+1] entries
	OutW  []float64   // [NumClasses][Sizes[last]] row-major
	OutB  []float64   // [NumClasses]
}

// Config selects the architecture and training schedule.
type Config struct {
	Hidden       []int // hidden layer sizes (default {20, 8})
	PretrainOpts rbm.TrainOptions
	FineTuneLR   float64 // backprop learning rate (default 0.3)
	FineTuneIter int     // backprop epochs (default 30)
}

// DefaultConfig returns the paper's 81-20-8(-4) architecture.
func DefaultConfig() Config {
	return Config{
		Hidden:       []int{20, 8},
		PretrainOpts: rbm.DefaultTrainOptions(),
		FineTuneLR:   0.3,
		FineTuneIter: 30,
	}
}

// Train pretrains the stack layer by layer on the unlabeled windows,
// then fine-tunes the whole network on the labeled set.
// X rows are length Window*Window with values in [0,1]; labels are
// class indices in [0, NumClasses).
func Train(X [][]float64, labels []int, cfg Config, rng rbm.RNG) (*Network, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("dbn: empty training set")
	}
	if len(labels) != len(X) {
		return nil, fmt.Errorf("dbn: %d samples but %d labels", len(X), len(labels))
	}
	nv := len(X[0])
	for i, x := range X {
		if len(x) != nv {
			return nil, fmt.Errorf("dbn: sample %d has %d features, want %d", i, len(x), nv)
		}
	}
	for i, l := range labels {
		if l < 0 || l >= NumClasses {
			return nil, fmt.Errorf("dbn: label %d at %d out of range", l, i)
		}
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{20, 8}
	}
	if cfg.FineTuneLR <= 0 {
		cfg.FineTuneLR = 0.3
	}
	if cfg.FineTuneIter <= 0 {
		cfg.FineTuneIter = 30
	}

	sizes := append([]int{nv}, cfg.Hidden...)
	n := &Network{Sizes: sizes}

	// Greedy layerwise pretraining: train an RBM on the activations of
	// the layer below, then propagate the data up through it.
	cur := X
	for l := 0; l+1 < len(sizes); l++ {
		machine := rbm.New(sizes[l], sizes[l+1], rng)
		machine.Train(cur, cfg.PretrainOpts, rng)
		n.W = append(n.W, machine.W)
		n.B = append(n.B, machine.BH)
		up := make([][]float64, len(cur))
		for i, v := range cur {
			up[i] = machine.HiddenProbs(v, nil)
		}
		cur = up
	}

	// Output layer starts at zero (softmax over the top features).
	top := sizes[len(sizes)-1]
	n.OutW = make([]float64, NumClasses*top)
	n.OutB = make([]float64, NumClasses)

	n.fineTune(X, labels, cfg, rng)
	return n, nil
}

// Scratch is the working memory of one forward pass: every layer's
// activations, the output logits and the class probabilities. The zero
// value is ready to use; its buffers grow to the network's layer sizes
// on first use and are reused by every later pass, so a caller that
// keeps one Scratch per goroutine classifies without allocating. A
// Scratch serves one goroutine at a time.
type Scratch struct {
	acts   [][]float64 // acts[0] aliases the input; acts[l] has Sizes[l] units
	logits [NumClasses]float64
	probs  [NumClasses]float64
}

// fit sizes the activation buffers for n, keeping them when they
// already match.
func (s *Scratch) fit(n *Network) {
	ok := len(s.acts) == len(n.Sizes)
	for l := 1; ok && l < len(n.Sizes); l++ {
		ok = len(s.acts[l]) == n.Sizes[l]
	}
	if ok {
		return
	}
	s.acts = make([][]float64, len(n.Sizes)) // lint:alloc sized once per Scratch and topology
	for l := 1; l < len(n.Sizes); l++ {
		s.acts[l] = make([]float64, n.Sizes[l]) // lint:alloc sized once per Scratch and topology
	}
}

// forward runs the network on x into sc: sc.acts[0] is x itself,
// sc.acts[len(Sizes)-1] the top hidden layer, and sc.probs the softmax
// class probabilities. It is the network's only forward pass, shared
// by classification and fine-tuning.
//
// lint:hotpath
func (n *Network) forward(x []float64, sc *Scratch) {
	sc.fit(n)
	acts := sc.acts
	acts[0] = x
	for l := 0; l+1 < len(n.Sizes); l++ {
		in := acts[l]
		out := acts[l+1]
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
	}
	top := acts[len(acts)-1]
	logits := sc.logits[:]
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
	probs := sc.probs[:]
	for c, l := range logits {
		probs[c] = math.Exp(l - maxL)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
}

// checkInput rejects a window whose length does not match the input
// layer.
func (n *Network) checkInput(x []float64) {
	if len(x) != n.Sizes[0] {
		// lint:invariant window length is fixed by the trained topology; mismatch is a wiring bug
		panic(fmt.Sprintf("dbn: input length %d, want %d", len(x), n.Sizes[0])) // lint:alloc cold panic path; fires only on a wiring bug
	}
}

// Probs returns the class probabilities for a window.
func (n *Network) Probs(x []float64) []float64 {
	n.checkInput(x)
	var s Scratch
	n.forward(x, &s)
	return append([]float64(nil), s.probs[:]...)
}

// Classify returns the most probable class and its probability.
func (n *Network) Classify(x []float64) (class int, prob float64) {
	var s Scratch
	return n.ClassifyWith(&s, x)
}

// ClassifyWith is Classify running in the caller's Scratch, so a loop
// over many windows allocates nothing after its first call.
//
// lint:hotpath
func (n *Network) ClassifyWith(s *Scratch, x []float64) (class int, prob float64) {
	n.checkInput(x)
	n.forward(x, s)
	p := s.probs[:]
	best := 0
	for c := 1; c < len(p); c++ {
		if p[c] > p[best] {
			best = c
		}
	}
	return best, p[best]
}

// fineTune runs stochastic-gradient backpropagation with cross-entropy
// loss through the softmax and sigmoid layers. Every sample reuses one
// forward Scratch and one delta buffer per layer.
func (n *Network) fineTune(X [][]float64, labels []int, cfg Config, rng rbm.RNG) {
	nSamples := len(X)
	order := make([]int, nSamples)
	for i := range order {
		order[i] = i
	}
	top := n.Sizes[len(n.Sizes)-1]
	var fs Scratch
	// deltas[l] holds dL/d(layer l activations), l >= 1.
	deltas := make([][]float64, len(n.Sizes))
	for l := 1; l < len(n.Sizes); l++ {
		deltas[l] = make([]float64, n.Sizes[l])
	}
	for epoch := 0; epoch < cfg.FineTuneIter; epoch++ {
		// Shuffle with the shared RNG for determinism.
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
			n.forward(x, &fs)
			acts := fs.acts
			topAct := acts[len(acts)-1]

			// Softmax output delta: p - onehot(label).
			dOut := fs.probs
			dOut[label] -= 1

			// Delta for the top hidden layer.
			dHidden := deltas[len(n.Sizes)-1]
			clear(dHidden)
			for c := 0; c < NumClasses; c++ {
				row := n.OutW[c*top : (c+1)*top]
				for i := range dHidden {
					dHidden[i] += dOut[c] * row[i]
				}
			}
			// Output layer update.
			for c := 0; c < NumClasses; c++ {
				row := n.OutW[c*top : (c+1)*top]
				for i, a := range topAct {
					row[i] -= lr * dOut[c] * a
				}
				n.OutB[c] -= lr * dOut[c]
			}

			// Backprop through the sigmoid stack.
			delta := dHidden
			for l := len(n.Sizes) - 2; l >= 0; l-- {
				in := acts[l]
				out := acts[l+1]
				nvl := n.Sizes[l]
				// delta currently holds dL/d(out activations).
				for h := range delta {
					delta[h] *= out[h] * (1 - out[h]) // sigmoid'
				}
				var prev []float64
				if l > 0 {
					prev = deltas[l]
					clear(prev)
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

// Accuracy evaluates classification accuracy on a labeled set.
func (n *Network) Accuracy(X [][]float64, labels []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if c, _ := n.Classify(x); c == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

// netFile is the serialized form.
type netFile struct {
	Sizes []int
	W     [][]float64
	B     [][]float64
	OutW  []float64
	OutB  []float64
}

// Encode writes the network to w.
func (n *Network) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(netFile{n.Sizes, n.W, n.B, n.OutW, n.OutB})
}

// Decode reads a network from r.
func Decode(r io.Reader) (*Network, error) {
	var f netFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("dbn: decode: %w", err)
	}
	return &Network{Sizes: f.Sizes, W: f.W, B: f.B, OutW: f.OutW, OutB: f.OutB}, nil
}

// Save writes the network to the named file.
func (n *Network) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := n.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a network from the named file.
func Load(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// WeightBytes reports the model footprint (32-bit words) for the FPGA
// resource model.
func (n *Network) WeightBytes() int {
	total := len(n.OutW) + len(n.OutB)
	for l := range n.W {
		total += len(n.W[l]) + len(n.B[l])
	}
	return 4 * total
}
