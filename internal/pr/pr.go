// Package pr implements the partial-reconfiguration controllers
// compared in §IV-A of the paper over the SoC model:
//
//   - PCAP: the stock PS-driven path through the processor
//     configuration access port (145 MB/s effective),
//   - AXI HWICAP: the Xilinx soft core fed word-by-word over a PS
//     general-purpose port (19 MB/s),
//   - ZyCAP-style: a PL DMA master pulling the bitstream from PS DDR
//     over an HP port into ICAP (382 MB/s),
//   - DMA-ICAP (the paper's controller, Fig. 7): the bitstream is
//     staged in the PL-side DDR once, and reconfiguration streams it
//     through a PL DMA and ICAP manager without touching the PS
//     interconnect at all (390 MB/s, 97.5% of the 400 MB/s ceiling).
//
// Errors are typed: every failure wraps one of the sentinels in
// errors.go (ErrBusy, ErrNotStaged, ErrVerify, ErrTimeout), so
// callers dispatch with errors.Is.
//
// lint:simtime
package pr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"advdet/internal/axi"
	"advdet/internal/fault"
	"advdet/internal/soc"
)

// Controller is one reconfiguration mechanism.
type Controller interface {
	// Name identifies the mechanism.
	Name() string
	// Reconfigure moves a partial bitstream of the given size into
	// the configuration memory on the platform, invoking done at
	// completion. It returns an error wrapping ErrBusy if a
	// reconfiguration is already in flight.
	Reconfigure(z *soc.Zynq, bytes int, done func()) error
}

// Result is one measured reconfiguration.
type Result struct {
	Controller string
	Bytes      int
	PS         uint64 // simulated duration
	MBPerSec   float64
}

// Measure runs a single reconfiguration of the given size on a fresh
// platform and reports its throughput — the experiment behind the
// §IV-A comparison (ARM event counters / ILA in the paper, the
// simulation tracer here). The size must be positive: a zero-byte
// bitstream is a caller bug, not a measurement. A reconfiguration
// that never signals completion (an injected mid-stream abort, say)
// returns an error wrapping ErrTimeout.
func Measure(ctrl Controller, bytes int) (Result, error) {
	if bytes <= 0 {
		return Result{}, fmt.Errorf("pr: bitstream size must be positive, got %d", bytes)
	}
	z := soc.NewZynq()
	start := z.Sim.Now()
	var (
		finish    uint64
		completed bool
	)
	err := ctrl.Reconfigure(z, bytes, func() { finish, completed = z.Sim.Now(), true })
	if err != nil {
		return Result{}, err
	}
	z.Sim.Run()
	if !completed {
		return Result{}, fmt.Errorf("pr: %s never completed: %w", ctrl.Name(), ErrTimeout)
	}
	d := finish - start
	return Result{Controller: ctrl.Name(), Bytes: bytes, PS: d, MBPerSec: soc.MBPerSec(bytes, d)}, nil
}

// MeasureN runs Measure repeats times, each on a fresh platform, and
// returns the result with the mean duration — the repeat knob behind
// the root API's WithMeasureRepeats. The model is deterministic, so
// repeats tighten nothing today; the knob exists so the bench surface
// is ready for models with contention jitter.
func MeasureN(ctrl Controller, bytes, repeats int) (Result, error) {
	if repeats <= 0 {
		return Result{}, fmt.Errorf("pr: repeats must be positive, got %d", repeats)
	}
	var (
		sumPS uint64
		out   Result
	)
	for i := 0; i < repeats; i++ {
		r, err := Measure(ctrl, bytes)
		if err != nil {
			return Result{}, err
		}
		sumPS += r.PS
		out = r
	}
	out.PS = sumPS / uint64(repeats)
	out.MBPerSec = soc.MBPerSec(bytes, out.PS)
	return out, nil
}

// checkSize rejects non-positive bitstream sizes up front, before any
// platform state is touched.
func checkSize(name string, bytes int) error {
	if bytes <= 0 {
		return fmt.Errorf("pr: %s: bitstream size must be positive, got %d", name, bytes) // lint:alloc cold error path; a failed or misissued reconfiguration
	}
	return nil
}

// PCAP is the processor configuration access port path: the PS DevC
// DMA reads the bitstream from PS DDR and pushes it through the PCAP
// bridge; every burst crosses the PS central interconnect.
type PCAP struct{ busy bool }

// Name implements Controller.
func (p *PCAP) Name() string { return "pcap" }

// Reconfigure implements Controller.
func (p *PCAP) Reconfigure(z *soc.Zynq, bytes int, done func()) error {
	if err := checkSize(p.Name(), bytes); err != nil {
		return err
	}
	if p.busy {
		return fmt.Errorf("pr: pcap: %w", ErrBusy)
	}
	p.busy = true
	z.Trace.Record(z.Sim.Now(), "pcap", "reconfig-start", fmt.Sprintf("%d bytes", bytes))
	z.PCAP.Start(z.Sim, bytes, func() {
		p.busy = false
		z.Trace.Record(z.Sim.Now(), "pcap", "reconfig-done", "")
		z.IRQ.Raise(soc.IRQPRDone)
		if done != nil {
			done()
		}
	})
	return nil
}

// HWICAP is the Xilinx AXI HWICAP soft core: the PS writes the
// bitstream one 32-bit word at a time through a general-purpose port,
// paying the full AXI-Lite round trip per word.
type HWICAP struct{ busy bool }

// Name implements Controller.
func (h *HWICAP) Name() string { return "axi-hwicap" }

// Reconfigure implements Controller.
func (h *HWICAP) Reconfigure(z *soc.Zynq, bytes int, done func()) error {
	if err := checkSize(h.Name(), bytes); err != nil {
		return err
	}
	if h.busy {
		return fmt.Errorf("pr: hwicap: %w", ErrBusy)
	}
	h.busy = true
	z.Trace.Record(z.Sim.Now(), "hwicap", "reconfig-start", fmt.Sprintf("%d bytes", bytes))
	// The GP port is the bottleneck; the ICAP absorbs each word
	// immediately, so the transfer is a single GP-paced stream.
	z.GP0.Start(z.Sim, bytes, func() {
		h.busy = false
		z.Trace.Record(z.Sim.Now(), "hwicap", "reconfig-done", "")
		z.IRQ.Raise(soc.IRQPRDone)
		if done != nil {
			done()
		}
	})
	return nil
}

// ZyCAP is the Vipin/Fahmy-style controller: a DMA instantiated on
// the PL fetches the bitstream from PS DDR through an AXI HP port and
// feeds the ICAP primitive. The controller owns exactly one DMA
// engine, so overlap is rejected by the same engine that is actually
// busy.
type ZyCAP struct {
	dma    *axi.DMA
	z      *soc.Zynq
	onDone func()
	fault  *fault.Plan
}

// Name implements Controller.
func (zc *ZyCAP) Name() string { return "zycap" }

// SetFaultPlan installs the fault injector on the controller's DMA
// engine. A nil plan disables injection.
func (zc *ZyCAP) SetFaultPlan(p *fault.Plan) {
	zc.fault = p
	if zc.dma != nil {
		zc.dma.SetFaultPlan(p)
	}
}

// bind lazily creates the owned DMA, rebinding only when the platform
// changes (Measure builds a fresh Zynq per run).
func (zc *ZyCAP) bind(z *soc.Zynq) {
	if zc.dma != nil && zc.z == z {
		return
	}
	zc.z = z
	zc.dma = axi.NewDMA("zycap-dma", z.Sim, z.ZyCAPFeed, func() {
		done := zc.onDone
		zc.onDone = nil
		z.Trace.Record(z.Sim.Now(), "zycap", "reconfig-done", "")
		z.IRQ.Raise(soc.IRQPRDone)
		if done != nil {
			done()
		}
	})
	zc.dma.SetFaultPlan(zc.fault)
}

// Reconfigure implements Controller.
func (zc *ZyCAP) Reconfigure(z *soc.Zynq, bytes int, done func()) error {
	if err := checkSize(zc.Name(), bytes); err != nil {
		return err
	}
	zc.bind(z)
	if zc.dma.Busy() {
		return fmt.Errorf("pr: zycap: %w", ErrBusy)
	}
	zc.onDone = done
	z.Trace.Record(z.Sim.Now(), "zycap", "reconfig-start", fmt.Sprintf("%d bytes", bytes))
	return driveDMA(zc.dma, bytes)
}

// Abort resets the owned DMA, abandoning any in-flight transfer. Safe
// to call when idle.
func (zc *ZyCAP) Abort() {
	zc.onDone = nil
	if zc.dma != nil {
		zc.dma.Reset()
	}
}

// stagedImage is one bitstream resident in PL DDR. goldCRC is the
// checksum recorded when the image was generated; memCRC is the
// checksum of what actually landed in memory. They differ only when a
// fault corrupted the staging transfer.
type stagedImage struct {
	bytes   int
	goldCRC uint32
	memCRC  uint32
}

// DMAICAP is the paper's PR controller (Fig. 7): partial bitstreams
// are staged in the PL-dedicated DDR3 at startup; a reconfiguration
// triggers a PL DMA that streams the bitstream through the ICAP
// manager into ICAPE2, then interrupts the PS. No PS interconnect hop
// is involved, and the HP ports stay free for detection traffic. The
// controller owns exactly one DMA engine; staging records a CRC32
// that ReconfigureStaged verifies before streaming.
type DMAICAP struct {
	dma    *axi.DMA
	z      *soc.Zynq
	onDone func()
	fault  *fault.Plan
	// staged tracks the bitstreams preloaded into PL DDR, keyed by id.
	staged map[string]stagedImage
}

// NewDMAICAP returns an empty controller; bitstreams must be staged
// before reconfiguring.
func NewDMAICAP() *DMAICAP { return &DMAICAP{staged: map[string]stagedImage{}} }

// Name implements Controller.
func (d *DMAICAP) Name() string { return "dma-icap" }

// SetFaultPlan installs the fault injector consulted at staging and at
// each DMA launch. A nil plan disables injection.
func (d *DMAICAP) SetFaultPlan(p *fault.Plan) {
	d.fault = p
	if d.dma != nil {
		d.dma.SetFaultPlan(p)
	}
}

// bitstreamCRC is the generation-time checksum of a synthetic
// bitstream: the model has no real bytes, so the CRC covers the
// identifying header (id + size), deterministically.
func bitstreamCRC(id string, bytes int) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(id))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(bytes))
	h.Write(b[:])
	return h.Sum32()
}

// Stage preloads a partial bitstream into PL DDR over an HP port (the
// one-time boot cost), recording its CRC32 for the verify pass, and
// invoking done at completion. Re-staging an id overwrites the
// resident image — the recovery path for a corrupted staging.
func (d *DMAICAP) Stage(z *soc.Zynq, id string, bytes int, done func()) {
	z.Trace.Record(z.Sim.Now(), "dma-icap", "stage-start", id)
	z.HP2.Start(z.Sim, bytes, func() {
		img := stagedImage{bytes: bytes, goldCRC: bitstreamCRC(id, bytes)}
		img.memCRC = img.goldCRC
		if mask, corrupt := d.fault.OnStage(id); corrupt {
			img.memCRC ^= mask
			z.Trace.Record(z.Sim.Now(), "dma-icap", "stage-corrupt", id)
		}
		d.staged[id] = img
		z.Trace.Record(z.Sim.Now(), "dma-icap", "stage-done", id)
		if done != nil {
			done()
		}
	})
}

// Staged reports whether the named bitstream is resident in PL DDR.
func (d *DMAICAP) Staged(id string) bool { _, ok := d.staged[id]; return ok }

// Verify recomputes the resident image's checksum against the one
// recorded at generation time — the CRC-word check a real ICAP flow
// runs before committing a bitstream to the fabric. It returns an
// error wrapping ErrNotStaged or ErrVerify.
func (d *DMAICAP) Verify(id string) error {
	img, ok := d.staged[id]
	if !ok {
		return fmt.Errorf("pr: dma-icap: bitstream %q: %w", id, ErrNotStaged) // lint:alloc cold error path; a failed or misissued reconfiguration
	}
	if img.memCRC != img.goldCRC {
		return fmt.Errorf("pr: dma-icap: bitstream %q: crc %#08x != %#08x: %w", // lint:alloc cold error path; a failed or misissued reconfiguration
			id, img.memCRC, img.goldCRC, ErrVerify)
	}
	return nil
}

// bind lazily creates the owned DMA, rebinding only when the platform
// changes (Measure builds a fresh Zynq per run).
func (d *DMAICAP) bind(z *soc.Zynq) {
	if d.dma != nil && d.z == z {
		return
	}
	d.z = z
	d.dma = axi.NewDMA("pr-dma", z.Sim, z.PLDDRFeed, func() {
		done := d.onDone
		d.onDone = nil
		z.Trace.Record(z.Sim.Now(), "dma-icap", "reconfig-done", "")
		z.IRQ.Raise(soc.IRQPRDone)
		if done != nil {
			done()
		}
	})
	d.dma.SetFaultPlan(d.fault)
}

// Reconfigure implements Controller: it streams from PL DDR through
// the DMA into the ICAP.
func (d *DMAICAP) Reconfigure(z *soc.Zynq, bytes int, done func()) error {
	if err := checkSize(d.Name(), bytes); err != nil {
		return err
	}
	d.bind(z)
	if d.dma.Busy() {
		return fmt.Errorf("pr: dma-icap: %w", ErrBusy) // lint:alloc cold error path; a failed or misissued reconfiguration
	}
	d.onDone = done
	z.Trace.Record(z.Sim.Now(), "dma-icap", "reconfig-start", fmt.Sprintf("%d bytes", bytes)) // lint:alloc one detail per reconfiguration, not per frame
	return driveDMA(d.dma, bytes)
}

// ReconfigureStaged reconfigures with a previously staged bitstream
// after verifying its checksum — the driver-level invariant of the
// paper's flow. It returns an error wrapping ErrNotStaged, ErrVerify
// or ErrBusy.
func (d *DMAICAP) ReconfigureStaged(z *soc.Zynq, id string, done func()) error {
	if err := d.Verify(id); err != nil {
		return err
	}
	return d.Reconfigure(z, d.staged[id].bytes, done)
}

// Abort resets the owned DMA, abandoning any in-flight transfer and
// freeing the feed link — the watchdog's re-arm path. Safe to call
// when idle.
func (d *DMAICAP) Abort() {
	d.onDone = nil
	if d.dma != nil {
		d.dma.Reset()
	}
}

// driveDMA programs a DMA the way the PS driver does: run bit, source
// address, then length (which launches the transfer).
func driveDMA(dma *axi.DMA, bytes int) error {
	if err := dma.WriteReg(axi.RegDMACR, axi.CtrlRun); err != nil {
		return err
	}
	if err := dma.WriteReg(axi.RegSrcAddr, 0x1000_0000); err != nil {
		return err
	}
	return dma.WriteReg(axi.RegLength, uint32(bytes))
}

// All returns one instance of each controller, ordered as in the
// paper's discussion.
func All() []Controller {
	return []Controller{&HWICAP{}, &PCAP{}, &ZyCAP{}, NewDMAICAP()}
}
