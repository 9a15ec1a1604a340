package soc

import "fmt"

// BurstLink models one AXI-style transfer path: data moves in bursts
// of BurstBeats beats, each beat WidthBytes wide at one beat per Clk
// cycle, with OverheadCycles of setup/stall per burst. Every transfer
// path in the system — HP ports, GP ports, PCAP bridge, ICAP feeds —
// is an instance with different structural parameters, and the
// paper's measured throughputs (19/145/382/390 MB/s) emerge from
// them.
type BurstLink struct {
	Name           string
	Clk            Clock
	WidthBytes     int
	BurstBeats     int
	OverheadCycles int
	// busyUntil serializes transfers over the shared link.
	busyUntil uint64
}

// validate panics on a structurally impossible link.
func (l *BurstLink) validate() {
	if l.WidthBytes <= 0 || l.BurstBeats <= 0 || l.OverheadCycles < 0 {
		// lint:invariant links are package-internal literals pinned by the package tests
		panic(fmt.Sprintf("soc: invalid link %q: %+v", l.Name, *l)) // lint:alloc invariant panic path
	}
}

// TransferPS returns the duration of moving n bytes over the link,
// ignoring queueing.
func (l *BurstLink) TransferPS(n int) uint64 {
	l.validate()
	if n <= 0 {
		return 0
	}
	beats := (n + l.WidthBytes - 1) / l.WidthBytes
	bursts := (beats + l.BurstBeats - 1) / l.BurstBeats
	cycles := uint64(beats) + uint64(bursts)*uint64(l.OverheadCycles)
	return l.Clk.CyclesPS(cycles)
}

// Throughput returns the steady-state throughput of the link in MB/s.
func (l *BurstLink) Throughput() float64 {
	const probe = 64 << 20 // 64 MiB probe keeps burst rounding negligible
	return MBPerSec(probe, l.TransferPS(probe))
}

// Start schedules a transfer of n bytes on sim, serialized after any
// transfer already using the link, and calls done at completion.
// It returns the scheduled completion time.
func (l *BurstLink) Start(sim *Sim, n int, done func()) uint64 {
	return l.StartExtra(sim, n, 0, done)
}

// StartExtra is Start with extraPS of additional occupancy folded into
// the transfer — the hook fault injection uses to model a mid-stream
// stall. The link stays reserved through the stall, so transfers
// queued behind a stalled one are delayed exactly as they would be on
// the wire.
func (l *BurstLink) StartExtra(sim *Sim, n int, extraPS uint64, done func()) uint64 {
	start := sim.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	finish := start + l.TransferPS(n) + extraPS
	l.busyUntil = finish
	if done != nil {
		sim.Schedule(finish-sim.Now(), done)
	}
	return finish
}

// Release frees the link immediately: an aborted transfer deasserts
// the stream, so transfers launched afterwards need not queue behind
// the abandoned reservation. Already-scheduled completion callbacks
// are unaffected (their owners guard against stale delivery).
func (l *BurstLink) Release(sim *Sim) {
	if l.busyUntil > sim.Now() {
		l.busyUntil = sim.Now()
	}
}

// Efficiency returns the fraction of theoretical wire bandwidth the
// link achieves: beats / (beats + overhead) per burst.
func (l *BurstLink) Efficiency() float64 {
	l.validate()
	return float64(l.BurstBeats) / float64(l.BurstBeats+l.OverheadCycles)
}

// The concrete links of the paper's platform (Fig. 6 and §IV-A).
// Overhead parameters are structural: they count the stall cycles a
// burst experiences at each hop, and are chosen from the Zynq TRM
// figures the paper cites rather than from the paper's results.

// NewHPPort returns an AXI high-performance port: 64-bit at 150 MHz
// (1200 MB/s ceiling) with a small per-burst arbitration cost inside
// the PS memory interconnect.
func NewHPPort(name string) *BurstLink {
	return &BurstLink{Name: name, Clk: ClkHP, WidthBytes: 8, BurstBeats: 16, OverheadCycles: 2}
}

// NewGPPort returns an AXI general-purpose port: 32-bit, routed
// through the PS central interconnect; single-beat transactions pay
// the full address/response round trip (the reason AXI HWICAP is so
// slow).
func NewGPPort(name string) *BurstLink {
	return &BurstLink{Name: name, Clk: ClkCfg, WidthBytes: 4, BurstBeats: 1, OverheadCycles: 20}
}

// NewPCAPLink returns the PCAP configuration path: 32-bit at 100 MHz
// (400 MB/s ceiling), but every 64-beat burst from PS DDR crosses the
// PS central interconnect, which injects ~112 stall cycles — yielding
// the ~145 MB/s the paper measures.
func NewPCAPLink() *BurstLink {
	return &BurstLink{Name: "pcap", Clk: ClkCfg, WidthBytes: 4, BurstBeats: 64, OverheadCycles: 112}
}

// NewICAPLink returns the raw ICAPE2 primitive: 32-bit at 100 MHz,
// 400 MB/s, no protocol overhead of its own (the feeding path is the
// bottleneck).
func NewICAPLink() *BurstLink {
	return &BurstLink{Name: "icape2", Clk: ClkCfg, WidthBytes: 4, BurstBeats: 64, OverheadCycles: 0}
}

// NewZyCAPFeed returns the ZyCAP-style feed: a PL DMA master reading
// PS DDR through an HP port; per 256-beat burst the HP path costs ~12
// cycles of setup/arbitration at the configuration clock — 95.5% of
// the ICAP ceiling (382 MB/s).
func NewZyCAPFeed() *BurstLink {
	return &BurstLink{Name: "zycap-feed", Clk: ClkCfg, WidthBytes: 4, BurstBeats: 256, OverheadCycles: 12}
}

// NewPSDDRPort returns the PS-side DDR3 controller port: 32-bit
// DDR3-1066 (two transfers per 533 MHz clock, modeled as 8 bytes per
// cycle at 533 MHz) with ~20% efficiency loss to row activation and
// refresh. Peak ~3.4 GB/s — well above any single AXI port, which is
// why the AXI ports, not the DRAM, bound every transfer in this
// system.
func NewPSDDRPort() *BurstLink {
	return &BurstLink{Name: "ps-ddr3", Clk: ClkDDR, WidthBytes: 8, BurstBeats: 64, OverheadCycles: 16}
}

// NewPLDDRPort returns the PL-side DDR3 controller the paper's board
// provides (the Mini-ITX carries a PL-dedicated SODIMM): same device
// timing as the PS DDR, but private to the PL, so PR-bitstream reads
// never contend with frame traffic.
func NewPLDDRPort() *BurstLink {
	return &BurstLink{Name: "pl-ddr3", Clk: ClkDDR, WidthBytes: 8, BurstBeats: 64, OverheadCycles: 16}
}

// NewPLDDRFeed returns the paper's PR controller feed: the DMA reads
// partial bitstreams from the PL-side DDR3, never touching the PS
// interconnect; only DMA descriptor turnaround (~6.5 cycles per
// 256-beat burst, rounded to 7) remains — 97.4% of ceiling
// (~390 MB/s).
func NewPLDDRFeed() *BurstLink {
	return &BurstLink{Name: "plddr-feed", Clk: ClkCfg, WidthBytes: 4, BurstBeats: 256, OverheadCycles: 7}
}
