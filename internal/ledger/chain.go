package ledger

// Chain is one stream's append-only hash chain. Every event payload is
// hashed into a leaf and folded into the running head, so the head
// after event i commits to the exact bytes and order of events 0..i;
// rewriting any earlier event changes every later head. Payloads are
// kept in one amortized arena (not one allocation per event) so the
// steady-state append path stays allocation-free.
//
// A Chain is not safe for concurrent use on its own; the owning Ledger
// serializes access.
type Chain struct {
	stream int32
	head   Hash
	ps     []uint64
	leaves []Hash
	arena  []byte
	offs   []uint32 // len(ps)+1 entries; record i is arena[offs[i]:offs[i+1]]
}

func newChain(stream int32) *Chain {
	return &Chain{stream: stream, offs: make([]uint32, 1, 64)}
}

// append records one event, returning its sequence number within the
// chain and the leaf hash the Merkle batch will commit to.
func (c *Chain) append(ps uint64, payload []byte) (seq uint64, leaf Hash) {
	seq = uint64(len(c.leaves))
	leaf = leafHash(ps, payload)
	c.head = chainHash(c.head, leaf)
	c.ps = append(c.ps, ps)                       // lint:alloc the chain retains every event by design; its arenas grow amortized
	c.leaves = append(c.leaves, leaf)             // lint:alloc the chain retains every event by design; its arenas grow amortized
	c.arena = append(c.arena, payload...)         // lint:alloc the chain retains every event by design; its arenas grow amortized
	c.offs = append(c.offs, uint32(len(c.arena))) // lint:alloc the chain retains every event by design; its arenas grow amortized
	return seq, leaf
}

// Stream returns the chain's stream id.
func (c *Chain) Stream() int32 { return c.stream }

// Len returns the number of events on the chain.
func (c *Chain) Len() int { return len(c.leaves) }

// Head returns the running chain head (zero for an empty chain).
func (c *Chain) Head() Hash { return c.head }

// Leaf returns the leaf hash of event seq (zero Hash out of range).
func (c *Chain) Leaf(seq int) Hash {
	if seq < 0 || seq >= len(c.leaves) {
		return Hash{}
	}
	return c.leaves[seq]
}

// Record returns event seq's timestamp and a copy of its canonical
// payload — a copy, so callers can never alias (or corrupt) the
// ledger's internal arena. Out of range returns (0, nil).
func (c *Chain) Record(seq int) (ps uint64, payload []byte) {
	if seq < 0 || seq >= len(c.ps) {
		return 0, nil
	}
	return c.ps[seq], append([]byte(nil), c.payloadView(seq)...)
}

// payloadView returns the arena-backed bytes of record seq; internal
// callers must not retain or mutate them.
func (c *Chain) payloadView(seq int) []byte {
	return c.arena[c.offs[seq]:c.offs[seq+1]]
}
