// Package axi models the AXI infrastructure of Fig. 6 at the
// driver-visible level: AXI-Lite register files through which the PS
// controls the accelerators, and AXI DMA engines that move stream
// data between memory and the detection pipelines ("Processing system
// initiates the DMA data transfer by writing to its registers and
// defining the size of data", §IV).
//
// lint:simtime
package axi

import (
	"fmt"

	"advdet/internal/fault"
	"advdet/internal/soc"
)

// AXI DMA register offsets (subset of the Xilinx AXI DMA map used by
// the paper's drivers).
const (
	RegDMACR   = 0x00 // control: bit 0 = run/stop, bit 2 = soft reset
	RegDMASR   = 0x04 // status: bit 0 = halted, bit 1 = idle
	RegSrcAddr = 0x18 // source address
	RegLength  = 0x28 // transfer length in bytes; writing starts the DMA
)

// Control bits of RegDMACR.
const (
	CtrlRun   = 1 << 0
	CtrlReset = 1 << 2 // self-clearing soft reset, as on the Xilinx core
)

// Status bits of RegDMASR.
const (
	StatusHalted = 1 << 0
	StatusIdle   = 1 << 1
	StatusIOCIrq = 1 << 12 // interrupt-on-complete latched
	StatusErrIrq = 1 << 14 // transfer error latched (aborted stream)
)

// DMA is a one-channel AXI DMA engine bound to a transfer link. The
// PS (or an on-PL master) programs it through the register interface;
// writing the length register launches the transfer, and completion
// raises the bound IRQ line.
type DMA struct {
	Name string

	sim  *soc.Sim
	link *soc.BurstLink
	irq  func()

	regs        map[uint32]uint32
	busy        bool
	transferred uint64
	completions int
	faults      int
	fault       *fault.Plan
	// gen invalidates in-flight completion callbacks across a Reset:
	// a completion scheduled before the reset finds the generation
	// advanced and delivers nothing, exactly like a halted engine
	// ignoring a late stream beat.
	gen uint64
}

// NewDMA builds a DMA on the simulator moving data over link; irq
// (optional) is invoked at each transfer completion.
func NewDMA(name string, sim *soc.Sim, link *soc.BurstLink, irq func()) *DMA {
	return &DMA{
		Name: name,
		sim:  sim,
		link: link,
		irq:  irq,
		regs: map[uint32]uint32{RegDMASR: StatusHalted}, // lint:alloc built once per DMA engine, not per frame
	}
}

// WriteReg models an AXI-Lite write. Writing RegLength while the
// engine is running launches a transfer of that many bytes.
func (d *DMA) WriteReg(addr, val uint32) error {
	switch addr {
	case RegDMACR:
		if val&CtrlReset != 0 {
			d.Reset()
			return nil
		}
		d.regs[RegDMACR] = val
		if val&1 == 1 {
			d.regs[RegDMASR] &^= StatusHalted
			d.regs[RegDMASR] |= StatusIdle
		} else {
			d.regs[RegDMASR] |= StatusHalted
		}
	case RegSrcAddr:
		d.regs[RegSrcAddr] = val
	case RegLength:
		if d.regs[RegDMACR]&1 == 0 {
			return fmt.Errorf("axi: %s: length written while halted", d.Name) // lint:alloc cold error path; a misprogrammed DMA register write
		}
		if d.busy {
			return fmt.Errorf("axi: %s: transfer already in flight", d.Name) // lint:alloc cold error path; a misprogrammed DMA register write
		}
		if val == 0 {
			return fmt.Errorf("axi: %s: zero-length transfer", d.Name) // lint:alloc cold error path; a misprogrammed DMA register write
		}
		d.regs[RegLength] = val
		d.start(int(val))
	default:
		return fmt.Errorf("axi: %s: write to unmapped register %#x", d.Name, addr) // lint:alloc cold error path; a misprogrammed DMA register write
	}
	return nil
}

// ReadReg models an AXI-Lite read.
func (d *DMA) ReadReg(addr uint32) (uint32, error) {
	v, ok := d.regs[addr]
	if !ok {
		return 0, fmt.Errorf("axi: %s: read from unmapped register %#x", d.Name, addr)
	}
	return v, nil
}

func (d *DMA) start(bytes int) {
	d.busy = true
	d.regs[RegDMASR] &^= StatusIdle
	gen := d.gen
	switch fv := d.fault.OnDMA(d.Name, bytes); fv.Action {
	case fault.DMAAbort:
		// The stream dies at the fault offset: the engine error-halts,
		// no completion interrupt ever fires, and the link goes idle
		// after the partial transfer.
		d.link.Start(d.sim, fv.Offset, func() {
			if d.gen != gen {
				return
			}
			d.busy = false
			d.faults++
			d.regs[RegDMASR] |= StatusHalted | StatusErrIrq
		})
	case fault.DMAStall:
		// The full transfer happens, with the stall folded into the
		// link occupancy, so anything queued behind it waits too.
		d.link.StartExtra(d.sim, bytes, fv.StallPS, func() { d.complete(gen, bytes) })
	default:
		d.link.Start(d.sim, bytes, func() { d.complete(gen, bytes) })
	}
}

// complete delivers a transfer completion unless a Reset has
// invalidated it.
func (d *DMA) complete(gen uint64, bytes int) {
	if d.gen != gen {
		return
	}
	d.busy = false
	d.transferred += uint64(bytes)
	d.completions++
	d.regs[RegDMASR] |= StatusIdle | StatusIOCIrq
	if d.irq != nil {
		d.irq()
	}
}

// Reset models the DMACR soft-reset bit: the engine halts, any
// in-flight transfer is abandoned (its completion and interrupt are
// swallowed), the link is released, and the register file returns to
// the power-on state. This is the watchdog's re-arm path.
func (d *DMA) Reset() {
	d.gen++
	d.busy = false
	d.link.Release(d.sim)
	d.regs[RegDMACR] = 0
	d.regs[RegDMASR] = StatusHalted
}

// SetFaultPlan installs the fault injector consulted at each transfer
// launch. A nil plan disables injection.
func (d *DMA) SetFaultPlan(p *fault.Plan) { d.fault = p }

// Busy reports whether a transfer is in flight.
func (d *DMA) Busy() bool { return d.busy }

// Faults returns the number of transfers that error-halted.
func (d *DMA) Faults() int { return d.faults }

// Transferred returns the total bytes moved.
func (d *DMA) Transferred() uint64 { return d.transferred }

// Completions returns the number of finished transfers.
func (d *DMA) Completions() int { return d.completions }

// AckIRQ clears the latched interrupt-on-complete status bit, as the
// driver's interrupt handler does.
func (d *DMA) AckIRQ() { d.regs[RegDMASR] &^= StatusIOCIrq }

// Lite is a generic AXI-Lite register file for accelerator parameter
// blocks ("Parameters of detection modules are also accessible by PS
// and could be updated through AXI-Lite interface"). Each access
// costs one GP-port transaction of simulated time.
type Lite struct {
	Name string
	sim  *soc.Sim
	port *soc.BurstLink
	regs map[uint32]uint32
	// accessPS accumulates the simulated time spent on register I/O.
	accessPS uint64
}

// NewLite builds a register file accessed through the given GP port.
func NewLite(name string, sim *soc.Sim, port *soc.BurstLink) *Lite {
	return &Lite{Name: name, sim: sim, port: port, regs: map[uint32]uint32{}}
}

// Write stores a register value, charging one 4-byte GP transaction.
func (l *Lite) Write(addr, val uint32) {
	l.accessPS += l.port.TransferPS(4)
	l.regs[addr] = val
}

// Read returns a register value (zero if never written), charging one
// GP transaction.
func (l *Lite) Read(addr uint32) uint32 {
	l.accessPS += l.port.TransferPS(4)
	return l.regs[addr]
}

// AccessPS returns the cumulative simulated time spent on this
// register file's I/O.
func (l *Lite) AccessPS() uint64 { return l.accessPS }
