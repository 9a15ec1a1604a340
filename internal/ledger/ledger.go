// Package ledger implements the tamper-evident detection ledger: an
// append-only, hash-chained log of the adaptive system's typed events
// (frame verdicts, model selects, reconfiguration outcomes, faults,
// mode transitions), batched into Merkle trees whose roots chain into
// a single anchor a fleet backend could persist cheaply.
//
// The structure is three hash layers:
//
//   - per-stream chains: head' = H(tag || head || H(tag || payload)) —
//     order and content of one camera's events;
//   - per-batch Merkle trees over the leaves of all streams, sealed by
//     size or simulated-time deadline;
//   - the anchor chain over sealed roots: anchor' = H(tag || anchor ||
//     root).
//
// Appends take one mutex, hash into preallocated arenas and allocate
// nothing in steady state, so the ledger can ride the detection path
// without disturbing its zero-alloc budget. Verification is fully
// offline: WriteTo serializes every payload and seal, and VerifyLog
// recomputes all three layers from the raw bytes, pinpointing the
// first tampered record and batch (see log.go).
package ledger

import (
	"fmt"
	"sync"
)

// Config shapes the size-or-deadline batch sealing.
type Config struct {
	// MaxBatch seals the open batch when it holds this many events.
	// Zero or negative selects 64.
	MaxBatch int
	// MaxSpanPS seals the open batch when the newest event is this much
	// simulated time past the oldest — the deadline half, expressed on
	// the platform clock so sealing is deterministic for a given event
	// stream. Zero selects 250 ms. (An engine additionally runs a
	// wall-clock fleet.Sealer so a quiet ledger still seals in real
	// time.)
	MaxSpanPS uint64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxSpanPS == 0 {
		c.MaxSpanPS = 250_000_000_000
	}
	return c
}

// LeafRef locates one ledgered event: which stream chain, which
// sequence number on it, and the leaf hash the batch's Merkle tree
// commits to.
type LeafRef struct {
	Stream int32
	Seq    uint64
	PS     uint64
	Leaf   Hash
}

// Batch is one sealed Merkle batch: the root over its leaves and the
// anchor-chain head after folding that root in.
type Batch struct {
	Index   int
	Root    Hash
	Anchor  Hash
	FirstPS uint64
	LastPS  uint64
	Leaves  []LeafRef
}

// Ledger is the engine-level ledger: one chain per stream, one shared
// batch sealer, one anchor chain. All methods are safe for concurrent
// use (streams on different executor goroutines append concurrently).
type Ledger struct {
	mu      sync.Mutex
	cfg     Config
	chains  []*Chain // indexed by stream id; nil gaps for unseen ids
	open    []LeafRef
	batches []Batch
	anchor  Hash
	events  uint64
	// tree is the seal's Merkle working set: the open batch's leaf
	// hashes, reduced in place to the root. It grows to the largest
	// batch and is reused by every seal.
	tree []Hash
}

// New builds an empty ledger. The zero Config selects the defaults.
func New(cfg Config) *Ledger {
	return &Ledger{cfg: cfg.withDefaults()}
}

// Append records one canonical event payload: it extends the stream's
// hash chain, adds the leaf to the open batch, and seals the batch if
// it reached MaxBatch events or spans more than MaxSpanPS of simulated
// time. The payload is copied (callers may reuse their buffer) and the
// event's sequence number on its stream chain is returned. Negative
// stream ids are folded onto chain 0.
func (l *Ledger) Append(stream int32, ps uint64, payload []byte) uint64 {
	if stream < 0 {
		stream = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, leaf := l.chainLocked(stream).append(ps, payload)
	l.events++
	l.open = append(l.open, LeafRef{Stream: stream, Seq: seq, PS: ps, Leaf: leaf}) // lint:alloc the ledger retains every event and batch by design; amortized growth
	if len(l.open) >= l.cfg.MaxBatch ||
		(ps > l.open[0].PS && ps-l.open[0].PS >= l.cfg.MaxSpanPS) {
		l.sealLocked()
	}
	return seq
}

func (l *Ledger) chainLocked(stream int32) *Chain {
	for int(stream) >= len(l.chains) {
		l.chains = append(l.chains, nil)
	}
	if l.chains[stream] == nil {
		l.chains[stream] = newChain(stream)
	}
	return l.chains[stream]
}

func (l *Ledger) sealLocked() {
	if len(l.open) == 0 {
		return
	}
	l.tree = l.tree[:0]
	for _, r := range l.open {
		l.tree = append(l.tree, r.Leaf) // lint:alloc grows to the largest batch once per ledger
	}
	root := merkleRoot(l.tree)
	l.anchor = anchorHash(l.anchor, root)
	l.batches = append(l.batches, Batch{ // lint:alloc the ledger retains every event and batch by design; amortized growth
		Index:   len(l.batches),
		Root:    root,
		Anchor:  l.anchor,
		FirstPS: l.open[0].PS,
		LastPS:  l.open[len(l.open)-1].PS,
		Leaves:  l.open,
	})
	// The sealed batch owns the slice now. The next batch's is
	// allocated once, at this one's size, not regrown from nothing.
	l.open = make([]LeafRef, 0, len(l.open)) // lint:alloc one leaf list per batch, retained by the batch it becomes
}

// SealOpen force-seals the open batch if it is non-empty — the
// wall-clock deadline path (fleet.Sealer ticks call it) and the
// end-of-drive flush before WriteTo.
func (l *Ledger) SealOpen() {
	l.mu.Lock()
	l.sealLocked()
	l.mu.Unlock()
}

// Counts returns the totals: events appended and batches sealed.
// Cheap enough to publish as per-frame gauges.
func (l *Ledger) Counts() (events, batches uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events, uint64(len(l.batches))
}

// NumBatches returns how many batches have been sealed.
func (l *Ledger) NumBatches() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.batches)
}

// OpenLeaves returns how many events sit in the not-yet-sealed batch.
func (l *Ledger) OpenLeaves() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.open)
}

// AnchorHead returns the anchor-chain head over all sealed batches.
func (l *Ledger) AnchorHead() Hash {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.anchor
}

// Batch returns a copy of sealed batch i (Leaves deep-copied, so the
// caller can never alias ledger state).
func (l *Ledger) Batch(i int) (Batch, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.batches) {
		return Batch{}, false
	}
	b := l.batches[i]
	b.Leaves = append([]LeafRef(nil), b.Leaves...)
	return b, true
}

// Streams returns the ids of all stream chains, ascending.
func (l *Ledger) Streams() []int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int32, 0, len(l.chains))
	for i, c := range l.chains {
		if c != nil {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// ChainHead returns stream's running chain head; ok is false if the
// stream has never appended.
func (l *Ledger) ChainHead(stream int32) (Hash, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if stream < 0 || int(stream) >= len(l.chains) || l.chains[stream] == nil {
		return Hash{}, false
	}
	return l.chains[stream].head, true
}

// ChainLen returns how many events stream's chain holds.
func (l *Ledger) ChainLen(stream int32) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if stream < 0 || int(stream) >= len(l.chains) || l.chains[stream] == nil {
		return 0
	}
	return l.chains[stream].Len()
}

// Record returns event seq of stream's chain: its timestamp and a copy
// of the canonical payload.
func (l *Ledger) Record(stream int32, seq int) (ps uint64, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if stream < 0 || int(stream) >= len(l.chains) || l.chains[stream] == nil {
		return 0, nil
	}
	return l.chains[stream].Record(seq)
}

// Prove builds an inclusion proof for leaf li of sealed batch bi.
// Proof.Verify against the batch's Root (or against a root recomputed
// offline by VerifyLog) confirms membership.
func (l *Ledger) Prove(bi, li int) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if bi < 0 || bi >= len(l.batches) {
		return Proof{}, fmt.Errorf("ledger: prove: batch %d of %d", bi, len(l.batches))
	}
	b := &l.batches[bi]
	if li < 0 || li >= len(b.Leaves) {
		return Proof{}, fmt.Errorf("ledger: prove: leaf %d of %d in batch %d", li, len(b.Leaves), bi)
	}
	leaves := make([]Hash, len(b.Leaves))
	for i, r := range b.Leaves {
		leaves[i] = r.Leaf
	}
	return Proof{
		BatchIndex: bi,
		LeafIndex:  li,
		LeafCount:  len(b.Leaves),
		Leaf:       b.Leaves[li].Leaf,
		Path:       proofPath(leaves, li),
	}, nil
}
