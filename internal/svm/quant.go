// Quantized block-response evaluation: the int16/int32 rendition of
// blockmodel.go, shaped like the PL datapath actually computes — BRAM
// planes of Q1.14 normalized blocks, int16 weights, DSP48-style wide
// accumulation with one convergent rounding, and int32 Q15.16 margins
// with saturating adds (internal/fixed kernels).
//
// The float path stays the equivalence oracle. Quantization error is
// bounded analytically at Init time: every decision whose quantized
// margin clears the threshold by more than that bound is provably the
// float decision, and the rare window inside the guard band is
// re-scored in float. The detection *box set* of the quantized path is
// therefore structurally identical to the float path on every input;
// only accepted scores may differ, by at most ErrBound.
package svm

import (
	"fmt"
	"math"

	"advdet/internal/fixed"
)

// QuantDecision classifies one window's quantized margin.
type QuantDecision int

const (
	// QuantReject: the float margin provably misses the threshold.
	QuantReject QuantDecision = iota
	// QuantAccept: the float margin provably clears the threshold;
	// the returned score is the dequantized margin (within ErrBound
	// of the float score).
	QuantAccept
	// QuantBorderline: the quantized margin is within the error bound
	// of the threshold; the caller must re-score the window in float.
	QuantBorderline
)

// QuantBlockModel is a trained linear model quantized for int16/int32
// block-response evaluation, plus the guard-band thresholds that keep
// its decisions consistent with the float path. Immutable between
// Init calls and safe for concurrent readers.
type QuantBlockModel struct {
	BW, BH   int
	BlockLen int

	shiftW  uint    // weight scale: wq = round(w * 2^shiftW)
	rescale uint    // per-block accumulator shift down to Q15.16
	wq      []int16 // quantized weights, position-major like BlockModel.w

	qbias       int32   // bias in Q15.16 response units
	qlow, qhigh int32   // guard band around the scan threshold
	errBound    float64 // E: |float margin - dequantized margin| <= E

	order  []int   // early-exit evaluation order (descending bound)
	ordPBX []int   // order[k]'s window-relative block x
	ordPBY []int   // order[k]'s window-relative block y
	qbail  []int32 // bail when acc <= qbail[k+1] after k+1 blocks

	lastModel  *Model // Init memo (models are immutable once trained)
	lastThresh float64
}

// Init quantizes m for a bw x bh window of blockLen-float blocks
// scanned at the given detection threshold. It fails when the model
// weights are too large for a sound int16 quantization (the pipeline
// then falls back to the float path). Like BlockModel.Init, buffers
// are reused and a repeat Init against the same model, geometry and
// threshold is a no-op.
func (qm *QuantBlockModel) Init(m *Model, bw, bh, blockLen int, thresh float64) error {
	if bw <= 0 || bh <= 0 || blockLen <= 0 {
		return fmt.Errorf("svm: quant block model geometry %dx%d blocks of %d values", bw, bh, blockLen) // lint:alloc cold validation error path, runs once per reshape not per window
	}
	if n := bw * bh * blockLen; n != len(m.W) {
		return fmt.Errorf("svm: model has %d weights, want %d (%dx%d blocks of %d values)", // lint:alloc cold validation error path, runs once per reshape not per window
			len(m.W), n, bw, bh, blockLen)
	}
	if qm.lastModel == m && qm.BW == bw && qm.BH == bh && qm.BlockLen == blockLen && qm.lastThresh == thresh {
		return nil
	}
	qm.lastModel = nil // invalidate the memo until Init completes
	qm.BW, qm.BH, qm.BlockLen = bw, bh, blockLen

	// Power-of-two weight scale: as many fractional bits as fit the
	// largest weight into int16. The per-block product accumulator is
	// then Q at 2^(shiftW + BlockFracBits), rescaled once to Q15.16 —
	// which needs shiftW >= RespFracBits - BlockFracBits.
	var maxAbs float64
	for _, w := range m.W {
		maxAbs = math.Max(maxAbs, math.Abs(w))
	}
	const minShift = fixed.RespFracBits - fixed.BlockFracBits
	shiftW := uint(minShift)
	if maxAbs*float64(int64(1)<<shiftW) > math.MaxInt16 {
		return fmt.Errorf("svm: max |weight| %g too large for int16 quantization", maxAbs) // lint:alloc cold validation error path, runs once per reshape not per window
	}
	for shiftW < 24 && maxAbs*float64(int64(1)<<(shiftW+1)) <= math.MaxInt16 {
		shiftW++
	}
	qm.shiftW = shiftW
	qm.rescale = shiftW - minShift

	if cap(qm.wq) < len(m.W) {
		qm.wq = make([]int16, len(m.W))
	}
	qm.wq = qm.wq[:len(m.W)]
	wScale := float64(int64(1) << shiftW)
	for i, w := range m.W {
		qm.wq[i] = int16(math.Round(w * wScale)) // in range by shiftW construction
	}

	// Analytic error bound E on |float margin - dequantized quantized
	// margin|, per window:
	//
	//   sum_p [ eW * sum_i b_i  +  eB * sum_i |w^_i|  +  eR ]  +  eR
	//
	// where eW = 0.5/2^shiftW (weight rounding, scaled by the block
	// values it multiplies: sum_i b_i <= sqrt(blockLen) for
	// non-negative blocks of norm <= 1), eB = 0.5/2^BlockFracBits
	// (block-plane rounding, scaled by the dequantized weight mass
	// |w^_i| it meets), eR = 0.5/2^RespFracBits (one convergent
	// rounding per block rescale, one for the bias). Saturation never
	// fires inside the bound's regime — margins are a few units, the
	// int32 Q15.16 range is +/-32768 — so it only ever clamps values
	// already far outside the guard band.
	eW := 0.5 / wScale
	eB := 0.5 / float64(int64(1)<<fixed.BlockFracBits)
	eR := 0.5 / float64(int64(1)<<fixed.RespFracBits)
	sumB := math.Sqrt(float64(blockLen)) * (1 + 1e-12)
	perWin := bw * bh
	E := eR + 1e-9 // bias rounding + float slack for this computation
	for p := 0; p < perWin; p++ {
		var sumAbsW float64
		for _, wq := range qm.wq[p*blockLen:][:blockLen] {
			sumAbsW += math.Abs(float64(wq))
		}
		E += eW*sumB + (sumAbsW/wScale)*eB + eR
	}
	qm.errBound = E

	const respScale = float64(int64(1) << fixed.RespFracBits)
	qm.qbias = fixed.SatI32(int64(math.Round(m.Bias * respScale)))
	qm.qlow = fixed.SatI32(int64(math.Floor((thresh - E) * respScale)))
	qm.qhigh = fixed.SatI32(int64(math.Ceil((thresh + E) * respScale)))

	// Early-exit order and integer bail thresholds. The tail bound is
	// the float positive-part-norm suffix (the bound on every true
	// partial response not yet evaluated) plus E (covering the
	// quantization error of everything already evaluated) plus two
	// LSBs of slack for the bias and threshold roundings — so a bail
	// implies the float margin provably misses the threshold, and the
	// quantized early exit can never reject a window the float path
	// would accept.
	qm.order = growInts(qm.order, perWin)
	qm.ordPBX = growInts(qm.ordPBX, perWin)
	qm.ordPBY = growInts(qm.ordPBY, perWin)
	if cap(qm.qbail) < perWin+1 {
		qm.qbail = make([]int32, perWin+1)
	}
	qm.qbail = qm.qbail[:perWin+1]

	posNorm := make([]float64, perWin) // lint:alloc runs once per model reshape (Init memoizes), not per scan
	fillPosNorms(posNorm, m.W, blockLen)
	orderByDescending(qm.order, posNorm)
	for k, p := range qm.order {
		qm.ordPBX[k] = p % bw
		qm.ordPBY[k] = p / bw
	}
	tailF := 0.0
	for k := perWin; k >= 0; k-- {
		if k < perWin {
			tailF += posNorm[qm.order[k]]
		}
		qtail := int64(math.Ceil((tailF+E)*respScale)) + 2
		qm.qbail[k] = fixed.SatI32(int64(qm.qlow) - int64(qm.qbias) - qtail)
	}

	qm.lastModel, qm.lastThresh = m, thresh
	return nil
}

// ErrBound returns E, the proven bound on |float margin − dequantized
// quantized margin| for any window — the score epsilon of the
// bounded-divergence gate.
func (qm *QuantBlockModel) ErrBound() float64 { return qm.errBound }

// CheckLattice verifies once per level that every block any window of
// the lattice will read lies inside a quantized block plane of
// qblocksLen values.
func (qm *QuantBlockModel) CheckLattice(l Lattice, qblocksLen int) error {
	return checkLattice(l, qm.BW, qm.BH, qm.BlockLen, qblocksLen)
}

// decide classifies a full quantized margin against the guard band.
func (qm *QuantBlockModel) decide(qmargin int32) (float64, QuantDecision) {
	switch {
	case qmargin < qm.qlow:
		return 0, QuantReject
	case qmargin > qm.qhigh:
		return float64(qmargin) / float64(int64(1)<<fixed.RespFracBits), QuantAccept
	}
	return 0, QuantBorderline
}

// ScoreAt evaluates the window at anchor (ax, ay) on the quantized
// block plane. With early set, the partial-margin early exit bails as
// soon as the integer partial sum plus the sound remaining bound
// cannot reach the guard band's lower edge. The caller must have
// validated lat with CheckLattice, and must re-score QuantBorderline
// windows on the float path.
//
// lint:hotpath
func (qm *QuantBlockModel) ScoreAt(qblocks []int16, lat Lattice, ax, ay int, early bool) (float64, QuantDecision) {
	var acc int32
	for k, p := range qm.order {
		cy := ay*lat.StepY + qm.ordPBY[k]*lat.BlockStride
		cx := ax*lat.StepX + qm.ordPBX[k]*lat.BlockStride
		blk := qblocks[(cy*lat.NBX+cx)*qm.BlockLen:][:qm.BlockLen]
		wq := qm.wq[p*qm.BlockLen:][:qm.BlockLen]
		r := fixed.SatI32(fixed.RoundShiftI64(fixed.DotI16(wq, blk), qm.rescale))
		acc = fixed.AddSatI32(acc, r)
		if early && acc <= qm.qbail[k+1] {
			return 0, QuantReject
		}
	}
	return qm.decide(fixed.AddSatI32(qm.qbias, acc))
}
