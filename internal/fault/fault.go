// Package fault is the deterministic fault injector for the
// reconfiguration datapath. A Plan is armed with rules ("corrupt the
// second staging of the dark bitstream", "drop the first PR-done
// interrupt") or with seeded probabilities, then handed to the
// platform; the hooks in internal/axi, internal/soc and internal/pr
// consult it at the exact points where real hardware fails — the CRC
// word check before an ICAP stream, the DMA transfer itself, the
// PL-to-PS interrupt line, and the BRAM model-select register write.
//
// Every hook is safe on a nil *Plan and costs one nil check, so the
// fault-free configuration pays nothing. Decisions are fully
// deterministic: rules match on per-site occurrence counters, and the
// probabilistic Chaos mode draws from a seeded xorshift generator, so
// a given (plan construction, call sequence) always yields the same
// fault sequence — which is what makes degraded-mode scenarios
// reproducible in tests.
package fault

import (
	"fmt"
	"sync"
)

// Site identifies one injection point in the datapath.
type Site int

const (
	// SiteStageCorrupt corrupts a bitstream while it is being staged
	// into PL DDR: the stored CRC no longer matches the generation-time
	// checksum, so the pre-stream verify pass fails.
	SiteStageCorrupt Site = iota
	// SiteDMAStall pauses a DMA transfer mid-stream at a byte offset:
	// the transfer still completes, late.
	SiteDMAStall
	// SiteDMAAbort kills a DMA transfer mid-stream at a byte offset:
	// the engine error-halts and the completion interrupt never fires.
	SiteDMAAbort
	// SiteIRQDrop loses a PL-to-PS interrupt: the line is asserted but
	// the handler never runs.
	SiteIRQDrop
	// SiteBankSelect fails a BRAM model-bank select register write.
	SiteBankSelect
	numSites
)

var siteNames = [numSites]string{
	"stage-corrupt", "dma-stall", "dma-abort", "irq-drop", "bank-select",
}

func (s Site) String() string {
	if s < 0 || s >= numSites {
		return "unknown"
	}
	return siteNames[s]
}

// DMAAction is the outcome of consulting the plan at a DMA launch.
type DMAAction int

const (
	// DMANone leaves the transfer alone.
	DMANone DMAAction = iota
	// DMAStall delays the transfer by StallPS at Offset bytes.
	DMAStall
	// DMAAbort error-halts the transfer at Offset bytes.
	DMAAbort
)

// DMAFault is the injection decision for one DMA transfer.
type DMAFault struct {
	Action  DMAAction
	Offset  int    // byte offset into the transfer (0 = engine default)
	StallPS uint64 // extra simulated time for DMAStall
}

// Event records one fired fault, for test assertions and reports.
type Event struct {
	Site Site
	Key  string // bitstream id, DMA name, IRQ line, or "" for bank
	Seq  int    // 1-based occurrence of the site+key when it fired
}

func (e Event) String() string {
	if e.Key == "" {
		return fmt.Sprintf("%s#%d", e.Site, e.Seq)
	}
	return fmt.Sprintf("%s(%s)#%d", e.Site, e.Key, e.Seq)
}

// rule is one armed deterministic injection.
type rule struct {
	site Site
	key  string // "" matches any key at the site
	occ  int    // 1-based occurrence to fire on; 0 fires on every occurrence
	// payload
	mask    uint32 // stage corruption xor mask (nonzero)
	offset  int
	stallPS uint64
}

type siteKey struct {
	site Site
	key  string
}

// Plan is a set of armed faults. Arm it with the chainable rule
// methods (CorruptStage, StallDMA, ...) or the probabilistic Chaos
// knob, then install it on the platform (Zynq.SetFaultPlan,
// DMAICAP.SetFaultPlan, adaptive's WithFaultPlan). A nil *Plan is a
// valid, empty plan: every hook reports "no fault".
//
// The mutex exists for the -race test lane; the simulator itself is
// single-threaded, so the lock is uncontended in practice.
type Plan struct {
	mu     sync.Mutex
	rng    uint64 // xorshift64 state, seeded at construction
	rules  []rule
	chaos  [numSites]float64 // per-site fire probability
	counts map[siteKey]int   // consults seen per (site, key)
	events []Event
}

// NewPlan returns an empty plan whose probabilistic decisions derive
// from seed. The same seed and call sequence reproduce the same
// faults.
func NewPlan(seed uint64) *Plan {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15 // xorshift must not start at zero
	}
	return &Plan{rng: seed, counts: map[siteKey]int{}}
}

// CorruptStage arms a corruption of the given bitstream id on its
// occurrence-th staging (1-based; 0 = every staging). The stored
// checksum is xored with a seed-derived nonzero mask, so the verify
// pass before streaming fails with ErrVerify.
func (p *Plan) CorruptStage(id string, occurrence int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	mask := uint32(p.next())
	if mask == 0 {
		mask = 0xdeadbeef
	}
	p.rules = append(p.rules, rule{site: SiteStageCorrupt, key: id, occ: occurrence, mask: mask})
	return p
}

// StallDMA arms a mid-stream stall of the named DMA engine on its
// occurrence-th transfer: the transfer pauses at atByte for stallPS of
// simulated time, then completes.
func (p *Plan) StallDMA(name string, occurrence, atByte int, stallPS uint64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, rule{site: SiteDMAStall, key: name, occ: occurrence, offset: atByte, stallPS: stallPS})
	return p
}

// AbortDMA arms a mid-stream abort of the named DMA engine on its
// occurrence-th transfer: the engine error-halts at atByte and the
// completion interrupt never fires.
func (p *Plan) AbortDMA(name string, occurrence, atByte int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, rule{site: SiteDMAAbort, key: name, occ: occurrence, offset: atByte})
	return p
}

// DropIRQ arms the loss of the given IRQ line's occurrence-th
// assertion: the line counter still advances, but the handler never
// runs.
func (p *Plan) DropIRQ(line, occurrence int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, rule{site: SiteIRQDrop, key: irqKey(line), occ: occurrence})
	return p
}

// FailBankSelect arms a failure of the occurrence-th BRAM model-bank
// select write.
func (p *Plan) FailBankSelect(occurrence int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, rule{site: SiteBankSelect, occ: occurrence})
	return p
}

// Chaos sets a per-consult fire probability for a site, drawn from the
// plan's seeded generator. Deterministic rules are checked first;
// chaos only fires where no rule matched.
func (p *Plan) Chaos(s Site, prob float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s >= 0 && s < numSites {
		p.chaos[s] = prob
	}
	return p
}

// OnStage is the staging hook: it reports whether this staging of id
// should be corrupted and with what xor mask. Nil-safe.
func (p *Plan) OnStage(id string) (mask uint32, corrupt bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	seq := p.bump(SiteStageCorrupt, id)
	if r := p.match(SiteStageCorrupt, id, seq); r != nil {
		p.fire(SiteStageCorrupt, id, seq)
		return r.mask, true
	}
	if p.draw(SiteStageCorrupt) {
		p.fire(SiteStageCorrupt, id, seq)
		m := uint32(p.next())
		if m == 0 {
			m = 0xdeadbeef
		}
		return m, true
	}
	return 0, false
}

// OnDMA is the transfer-launch hook for the named DMA engine moving
// the given byte count. Nil-safe.
func (p *Plan) OnDMA(name string, bytes int) DMAFault {
	if p == nil {
		return DMAFault{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Stall and abort are distinct sites but consult the same launch;
	// a single shared occurrence counter keeps "the engine's Nth
	// transfer" meaning the same thing for both.
	seq := p.bump(SiteDMAStall, name)
	p.counts[siteKey{SiteDMAAbort, name}] = seq
	if r := p.match(SiteDMAAbort, name, seq); r != nil {
		p.fire(SiteDMAAbort, name, seq)
		return DMAFault{Action: DMAAbort, Offset: clampOffset(r.offset, bytes)}
	}
	if r := p.match(SiteDMAStall, name, seq); r != nil {
		p.fire(SiteDMAStall, name, seq)
		return DMAFault{Action: DMAStall, Offset: clampOffset(r.offset, bytes), StallPS: r.stallPS}
	}
	if p.draw(SiteDMAAbort) {
		p.fire(SiteDMAAbort, name, seq)
		return DMAFault{Action: DMAAbort, Offset: bytes / 2}
	}
	if p.draw(SiteDMAStall) {
		p.fire(SiteDMAStall, name, seq)
		return DMAFault{Action: DMAStall, Offset: bytes / 2, StallPS: 1_000_000_000} // 1 ms
	}
	return DMAFault{}
}

// OnIRQ is the interrupt-raise hook: true means this assertion of the
// line is lost. Nil-safe.
func (p *Plan) OnIRQ(line int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := irqKey(line)
	seq := p.bump(SiteIRQDrop, key)
	if p.match(SiteIRQDrop, key, seq) != nil || p.draw(SiteIRQDrop) {
		p.fire(SiteIRQDrop, key, seq)
		return true
	}
	return false
}

// OnBankSelect is the model-bank hook: true means this select write
// fails. Nil-safe.
func (p *Plan) OnBankSelect() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	seq := p.bump(SiteBankSelect, "")
	if p.match(SiteBankSelect, "", seq) != nil || p.draw(SiteBankSelect) {
		p.fire(SiteBankSelect, "", seq)
		return true
	}
	return false
}

// Events returns a copy of the faults fired so far, in firing order.
// Nil-safe.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// Count returns how many faults have fired at a site. Nil-safe.
func (p *Plan) Count(s Site) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.events {
		if e.Site == s {
			n++
		}
	}
	return n
}

// bump advances and returns the 1-based consult counter for site+key.
func (p *Plan) bump(s Site, key string) int {
	k := siteKey{s, key}
	p.counts[k]++
	return p.counts[k]
}

// match finds the first armed rule covering this consult.
func (p *Plan) match(s Site, key string, seq int) *rule {
	for i := range p.rules {
		r := &p.rules[i]
		if r.site != s {
			continue
		}
		if r.key != "" && r.key != key {
			continue
		}
		if r.occ == 0 || r.occ == seq {
			return r
		}
	}
	return nil
}

// draw samples the chaos probability for a site.
func (p *Plan) draw(s Site) bool {
	if p.chaos[s] <= 0 {
		return false
	}
	// 53-bit uniform in [0,1) from the xorshift state.
	u := float64(p.next()>>11) / float64(1<<53)
	return u < p.chaos[s]
}

func (p *Plan) fire(s Site, key string, seq int) {
	p.events = append(p.events, Event{Site: s, Key: key, Seq: seq}) // lint:alloc runs only with a fault plan installed; fault injection is a test regime, not a steady-state frame
}

// next advances the xorshift64 generator.
func (p *Plan) next() uint64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x
}

func irqKey(line int) string { return fmt.Sprintf("irq%d", line) } // lint:alloc runs only with a fault plan installed; fault injection is a test regime, not a steady-state frame

func clampOffset(off, bytes int) int {
	if off <= 0 || off >= bytes {
		return bytes / 2
	}
	return off
}
