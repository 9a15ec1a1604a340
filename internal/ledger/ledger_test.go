package ledger

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// testRNG is a seeded xorshift64 source; the repo bans ambient
// math/rand, and deterministic payloads make every failure replayable.
func testRNG(s uint64) func() uint64 {
	if s == 0 {
		s = 1
	}
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

// fillLedger appends n deterministic events across the given streams
// and returns the payloads in append order.
func fillLedger(l *Ledger, streams []int32, n int, seed uint64) [][]byte {
	rng := testRNG(seed)
	payloads := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		p := make([]byte, 8+int(rng()%24))
		for j := range p {
			p[j] = byte(rng())
		}
		l.Append(streams[i%len(streams)], uint64(i)*1_000_000, p)
		payloads = append(payloads, p)
	}
	return payloads
}

// TestMerkleProofRoundTrip is the inclusion-proof property test: for
// random batch sizes, every leaf's proof must verify against the root,
// and must stop verifying against a different root or with a tampered
// leaf.
func TestMerkleProofRoundTrip(t *testing.T) {
	rng := testRNG(99)
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33, 64}
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 1+int(rng()%200))
	}
	for _, n := range sizes {
		leaves := make([]Hash, n)
		for i := range leaves {
			var p [16]byte
			for j := 0; j < 16; j += 8 {
				v := rng()
				for k := 0; k < 8; k++ {
					p[j+k] = byte(v >> (8 * k))
				}
			}
			leaves[i] = leafHash(uint64(i), p[:])
		}
		root := merkleRoot(slices.Clone(leaves)) // merkleRoot reduces its argument in place
		for idx := 0; idx < n; idx++ {
			proof := Proof{LeafIndex: idx, LeafCount: n, Leaf: leaves[idx], Path: proofPath(leaves, idx)}
			if !proof.Verify(root) {
				t.Fatalf("n=%d idx=%d: valid proof rejected", n, idx)
			}
			wrong := root
			wrong[0] ^= 1
			if proof.Verify(wrong) {
				t.Fatalf("n=%d idx=%d: proof verified against the wrong root", n, idx)
			}
			bad := proof
			bad.Leaf[3] ^= 1
			if bad.Verify(root) && n > 1 {
				t.Fatalf("n=%d idx=%d: tampered leaf still verified", n, idx)
			}
			short := proof
			short.Path = short.Path[:len(short.Path)/2]
			if len(short.Path) != len(proof.Path) && short.Verify(root) {
				t.Fatalf("n=%d idx=%d: truncated path still verified", n, idx)
			}
		}
	}
}

// TestSealBySize: a batch seals as soon as it holds MaxBatch leaves,
// and SealOpen flushes the tail.
func TestSealBySize(t *testing.T) {
	l := New(Config{MaxBatch: 4, MaxSpanPS: 1 << 62})
	fillLedger(l, []int32{0, 1}, 10, 7)
	if got := l.NumBatches(); got != 2 {
		t.Fatalf("batches = %d, want 2 (10 events / MaxBatch 4)", got)
	}
	if got := l.OpenLeaves(); got != 2 {
		t.Fatalf("open leaves = %d, want 2", got)
	}
	l.SealOpen()
	if got, open := l.NumBatches(), l.OpenLeaves(); got != 3 || open != 0 {
		t.Fatalf("after SealOpen: batches = %d open = %d, want 3 and 0", got, open)
	}
	l.SealOpen() // idempotent on an empty tail
	if got := l.NumBatches(); got != 3 {
		t.Fatalf("empty SealOpen sealed a batch: %d", got)
	}
	events, batches := l.Counts()
	if events != 10 || batches != 3 {
		t.Fatalf("counts = (%d, %d), want (10, 3)", events, batches)
	}
}

// TestSealBySpan: with a huge size bound, the simulated-time deadline
// alone must seal.
func TestSealBySpan(t *testing.T) {
	l := New(Config{MaxBatch: 1 << 30, MaxSpanPS: 1000})
	l.Append(0, 100, []byte("a"))
	l.Append(0, 900, []byte("b"))
	if got := l.NumBatches(); got != 0 {
		t.Fatalf("sealed at span 800 < 1000: batches = %d", got)
	}
	l.Append(0, 1200, []byte("c")) // span 1100 >= 1000 seals a+b+c's batch
	if got := l.NumBatches(); got != 1 {
		t.Fatalf("batches = %d, want 1 after span deadline", got)
	}
	// Out-of-order (earlier) timestamps from another stream must not
	// underflow the span check into a spurious seal.
	l.Append(1, 5, []byte("d"))
	if got := l.NumBatches(); got != 1 {
		t.Fatalf("earlier cross-stream ps caused a seal: batches = %d", got)
	}
}

// TestChainsIndependent: each stream's chain head depends only on its
// own events.
func TestChainsIndependent(t *testing.T) {
	a := New(Config{})
	b := New(Config{})
	// Same stream-0 events in both, extra stream-1 traffic only in a.
	a.Append(0, 1, []byte("x"))
	a.Append(1, 2, []byte("noise"))
	a.Append(0, 3, []byte("y"))
	b.Append(0, 1, []byte("x"))
	b.Append(0, 3, []byte("y"))
	ha, _ := a.ChainHead(0)
	hb, _ := b.ChainHead(0)
	if ha != hb {
		t.Fatal("stream 0 chain head changed when an unrelated stream appended")
	}
	if got := a.ChainLen(1); got != 1 {
		t.Fatalf("stream 1 chain len = %d, want 1", got)
	}
	if _, ok := a.ChainHead(7); ok {
		t.Fatal("ChainHead reported a chain that was never written")
	}
}

// TestRecordNoAliasing: the payload handed back by Record must be a
// copy — mutating it cannot corrupt the arena the hashes commit to.
func TestRecordNoAliasing(t *testing.T) {
	l := New(Config{})
	l.Append(0, 1, []byte("immutable"))
	_, p1 := l.Record(0, 0)
	for i := range p1 {
		p1[i] = 0xFF
	}
	_, p2 := l.Record(0, 0)
	if !bytes.Equal(p2, []byte("immutable")) {
		t.Fatal("mutating Record's return corrupted the ledger arena")
	}
	if _, p := l.Record(0, 99); p != nil {
		t.Fatal("out-of-range Record returned a payload")
	}
}

// TestBatchDeepCopy: Batch(i) must not alias internal leaf slices.
func TestBatchDeepCopy(t *testing.T) {
	l := New(Config{MaxBatch: 2})
	fillLedger(l, []int32{0}, 4, 3)
	b1, ok := l.Batch(0)
	if !ok {
		t.Fatal("batch 0 missing")
	}
	b1.Leaves[0].Leaf[0] ^= 0xFF
	b2, _ := l.Batch(0)
	if b2.Leaves[0].Leaf == b1.Leaves[0].Leaf {
		t.Fatal("Batch returned aliased leaf storage")
	}
}

// TestLiveProofRoundTrip: proofs from the live ledger verify against
// their sealed batch roots.
func TestLiveProofRoundTrip(t *testing.T) {
	l := New(Config{MaxBatch: 8})
	fillLedger(l, []int32{0, 1, 2}, 50, 11)
	l.SealOpen()
	for bi := 0; bi < l.NumBatches(); bi++ {
		b, _ := l.Batch(bi)
		for li := range b.Leaves {
			proof, err := l.Prove(bi, li)
			if err != nil {
				t.Fatalf("Prove(%d, %d): %v", bi, li, err)
			}
			if !proof.Verify(b.Root) {
				t.Fatalf("proof (%d, %d) does not verify", bi, li)
			}
		}
	}
	if _, err := l.Prove(l.NumBatches(), 0); err == nil {
		t.Fatal("Prove out of range succeeded")
	}
}

// TestLogRoundTrip: WriteTo -> ReadLog preserves every field and the
// result verifies clean.
func TestLogRoundTrip(t *testing.T) {
	l := New(Config{MaxBatch: 8})
	payloads := fillLedger(l, []int32{0, 1, 2}, 41, 17)
	l.SealOpen()

	var buf bytes.Buffer
	n, err := l.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	lg, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyLog(lg)
	if !rep.OK {
		t.Fatalf("round-tripped log failed verification: %+v", rep)
	}
	if rep.Events != len(payloads) || rep.Batches != l.NumBatches() || rep.Streams != 3 {
		t.Fatalf("report = %+v, want %d events %d batches 3 streams", rep, len(payloads), l.NumBatches())
	}
	if lg.AnchorHead != l.AnchorHead() {
		t.Fatal("anchor head changed across serialization")
	}
	for _, id := range l.Streams() {
		want, _ := l.ChainHead(id)
		found := false
		for i := range lg.Streams {
			if lg.Streams[i].Stream == id {
				found = true
				if lg.Streams[i].Head != want {
					t.Fatalf("stream %d head changed across serialization", id)
				}
			}
		}
		if !found {
			t.Fatalf("stream %d missing from the log", id)
		}
	}
	// Proofs rebuilt from the recorded payloads verify too.
	for bi := range lg.Batches {
		proof, err := lg.Prove(bi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !proof.Verify(lg.Batches[bi].Root) {
			t.Fatalf("log proof for batch %d does not verify", bi)
		}
	}
}

// TestChainTamperPinpointsBatch is the tamper property: flipping ANY
// byte of ANY recorded payload must fail verification and pinpoint
// both the record and the batch that sealed it.
func TestChainTamperPinpointsBatch(t *testing.T) {
	l := New(Config{MaxBatch: 8})
	fillLedger(l, []int32{0, 1}, 30, 23)
	l.SealOpen()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// batchOf maps (stream, seq) -> sealing batch index.
	type key struct {
		stream int32
		seq    uint64
	}
	batchOf := map[key]int{}
	for bi := 0; bi < l.NumBatches(); bi++ {
		b, _ := l.Batch(bi)
		for _, ref := range b.Leaves {
			batchOf[key{ref.Stream, ref.Seq}] = bi
		}
	}

	for si := 0; si < 2; si++ {
		stream := int32(si)
		for seq := 0; seq < l.ChainLen(stream); seq++ {
			_, payload := l.Record(stream, seq)
			for bit := range payload {
				lg, err := ReadLog(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				for i := range lg.Streams {
					if lg.Streams[i].Stream == stream {
						lg.Streams[i].Payloads[seq][bit] ^= 0x01
					}
				}
				rep := VerifyLog(lg)
				if rep.OK {
					t.Fatalf("stream %d seq %d byte %d: tamper passed verification", stream, seq, bit)
				}
				if rep.BadStream != stream || rep.BadSeq != int64(seq) {
					t.Fatalf("stream %d seq %d byte %d: pinpointed (%d, %d)",
						stream, seq, bit, rep.BadStream, rep.BadSeq)
				}
				if want := batchOf[key{stream, uint64(seq)}]; rep.BadBatch != want {
					t.Fatalf("stream %d seq %d: pinpointed batch %d, want %d",
						stream, seq, rep.BadBatch, want)
				}
			}
		}
	}
}

// TestFileTamperDetected: flipping any single byte of the serialized
// file must either fail the parse or fail verification — no flip may
// read back as a clean ledger (the magic substitution '1'->'0' style
// flips included).
func TestFileTamperDetected(t *testing.T) {
	l := New(Config{MaxBatch: 8})
	fillLedger(l, []int32{0, 1}, 20, 31)
	l.SealOpen()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x01
		lg, err := ReadLog(bytes.NewReader(mut))
		if err != nil {
			if !errors.Is(err, ErrLogFormat) {
				t.Fatalf("byte %d: parse error does not wrap ErrLogFormat: %v", i, err)
			}
			continue
		}
		if rep := VerifyLog(lg); rep.OK {
			t.Fatalf("byte %d: single-byte flip read back as a clean ledger", i)
		}
	}
}

// TestReadLogCaps: corrupt length fields fail the parse instead of
// driving giant allocations.
func TestReadLogCaps(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(logMagic[:])
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // stream count far past the cap
	if _, err := ReadLog(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrLogFormat) {
		t.Fatalf("oversized count parsed: %v", err)
	}
	if _, err := ReadLog(bytes.NewReader([]byte("NOTALEDG"))); !errors.Is(err, ErrLogFormat) {
		t.Fatalf("bad magic parsed: %v", err)
	}
}

// TestSealSteadyStateAllocs pins the seal path's allocations: with
// batches sealing every 64 events, a steady-state batch allocates its
// leaf list once, sized from the previous batch, and nothing else — the
// Merkle reduction runs in the ledger's own scratch, and the batch list
// grows geometrically (amortized, it shows up as a fraction).
func TestSealSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const batch = 64
	l := New(Config{MaxBatch: batch, MaxSpanPS: 1 << 62})
	payload := bytes.Repeat([]byte{0xAB}, 64)
	ps := uint64(0)
	appendBatch := func() {
		for i := 0; i < batch; i++ {
			l.Append(0, ps, payload)
			ps++
		}
	}
	for i := 0; i < 64; i++ {
		appendBatch()
	}
	avg := testing.AllocsPerRun(64, appendBatch)
	t.Logf("%.2f allocations per sealed batch of %d events", avg, batch)
	if avg > 1.5 {
		t.Fatalf("a steady-state batch of %d events allocates %.2f objects, want 1 (its leaf list)", batch, avg)
	}
}

// TestAppendSteadyStateAllocs: after warmup the append path must be
// amortized allocation-free — the arena and slices grow geometrically,
// so per-append allocations tend to zero.
func TestAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l := New(Config{MaxBatch: 1 << 30, MaxSpanPS: 1 << 62})
	payload := bytes.Repeat([]byte{0xAB}, 64)
	for i := 0; i < 4096; i++ {
		l.Append(0, uint64(i), payload)
	}
	ps := uint64(4096)
	avg := testing.AllocsPerRun(512, func() {
		l.Append(0, ps, payload)
		ps++
	})
	if avg > 0.5 {
		t.Fatalf("steady-state Append allocates %.2f allocs/op, want ~0", avg)
	}
}
