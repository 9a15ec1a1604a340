package ledger

import (
	"crypto/sha256"
	"encoding/binary"
)

// Hash is a SHA-256 digest: a chain head, Merkle node or anchor.
type Hash [32]byte

// IsZero reports whether h is the all-zero hash (the head of an empty
// chain, the root of an empty batch).
func (h Hash) IsZero() bool { return h == Hash{} }

// Domain-separation tags. Every hash in the ledger is computed over a
// one-byte tag followed by its operands, so a leaf can never be
// confused with an interior node (the classic second-preimage trick
// against untagged Merkle trees), nor a chain link with an anchor
// link.
const (
	tagLeaf   = 0x00 // leaf   = H(0x00 || payload)
	tagNode   = 0x01 // node   = H(0x01 || left || right)
	tagChain  = 0x02 // head'  = H(0x02 || head || leaf)
	tagAnchor = 0x03 // anchor'= H(0x03 || anchor || root)
)

// leafHash commits to one event: its simulated timestamp and its
// canonical payload bytes. Covering the timestamp means a recorded
// drive's timing is as tamper-evident as its contents.
func leafHash(ps uint64, payload []byte) Hash {
	h := sha256.New()
	var hdr [9]byte
	hdr[0] = tagLeaf
	binary.BigEndian.PutUint64(hdr[1:], ps)
	h.Write(hdr[:])
	h.Write(payload)
	var out Hash
	h.Sum(out[:0])
	return out
}

// tagged hashes a domain tag byte followed by two hashes, in one
// fixed-size buffer.
func tagged(tag byte, a, b Hash) Hash {
	var buf [1 + 2*len(Hash{})]byte
	buf[0] = tag
	copy(buf[1:], a[:])
	copy(buf[1+len(a):], b[:])
	return sha256.Sum256(buf[:])
}

// nodeHash combines two Merkle siblings, left-then-right.
func nodeHash(left, right Hash) Hash {
	return tagged(tagNode, left, right)
}

// chainHash extends a stream's hash chain by one leaf: the head after
// event i commits to every event up to and including i.
func chainHash(head, leaf Hash) Hash {
	return tagged(tagChain, head, leaf)
}

// anchorHash extends the engine-level anchor chain by one sealed batch
// root — the single hash a fleet backend would persist per batch.
func anchorHash(anchor, root Hash) Hash {
	return tagged(tagAnchor, anchor, root)
}

// merkleRoot computes the root over leaves with the promotion rule for
// odd counts: a node without a sibling moves up a level unchanged (no
// self-pairing, so the tree shape is a pure function of the count).
// One leaf is its own root; zero leaves hash to the zero Hash. Each
// level is reduced into the front of the one below, so leaves is
// overwritten: callers pass a slice they own.
func merkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	level := leaves
	for len(level) > 1 {
		n := len(level) / 2
		for i := 0; i < n; i++ {
			level[i] = nodeHash(level[2*i], level[2*i+1])
		}
		if len(level)%2 == 1 {
			level[n] = level[len(level)-1]
			n++
		}
		level = level[:n]
	}
	return level[0]
}

// Proof is an inclusion proof: the sibling path from one leaf of a
// sealed batch up to its Merkle root. Verifying it against the sealed
// root proves the leaf was in the batch without seeing the other
// events.
type Proof struct {
	BatchIndex int
	LeafIndex  int
	LeafCount  int
	Leaf       Hash
	Path       []Hash
}

// proofPath collects the sibling hashes from leaves[idx] to the root.
// Levels where the node is an odd last element (promoted unchanged)
// contribute no path entry, mirroring merkleRoot's shape exactly.
func proofPath(leaves []Hash, idx int) []Hash {
	var path []Hash
	level := make([]Hash, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		if idx^1 < len(level) {
			path = append(path, level[idx^1])
		}
		n := len(level) / 2
		for i := 0; i < n; i++ {
			level[i] = nodeHash(level[2*i], level[2*i+1])
		}
		if len(level)%2 == 1 {
			level[n] = level[len(level)-1]
			n++
		}
		level = level[:n]
		idx /= 2
	}
	return path
}

// Verify recomputes the root from the leaf and sibling path and
// compares it to root. It replays merkleRoot's promotion rule from
// (LeafIndex, LeafCount) alone, so the path length is fully determined
// and a truncated or padded path fails.
func (p Proof) Verify(root Hash) bool {
	if p.LeafCount <= 0 || p.LeafIndex < 0 || p.LeafIndex >= p.LeafCount {
		return false
	}
	h := p.Leaf
	idx, n, k := p.LeafIndex, p.LeafCount, 0
	for n > 1 {
		if idx^1 < n {
			if k >= len(p.Path) {
				return false
			}
			sib := p.Path[k]
			k++
			if idx&1 == 0 {
				h = nodeHash(h, sib)
			} else {
				h = nodeHash(sib, h)
			}
		}
		idx /= 2
		n = (n + 1) / 2
	}
	return k == len(p.Path) && h == root
}
