package soc

import (
	"fmt"

	"advdet/internal/fault"
	"advdet/internal/trace"
)

// IRQ identifiers for the PL-to-PS interrupt lines of Fig. 6.
const (
	IRQVehicleDMA = iota
	IRQPedestrianDMA
	IRQPRDone
	numIRQs
)

// IRQController models the PS generic interrupt controller: raising a
// line schedules the registered handler after a fixed PS-side entry
// latency.
type IRQController struct {
	sim      *Sim
	handlers [numIRQs]func()
	// EntryCycles is the interrupt entry latency in PS CPU cycles.
	EntryCycles uint64
	raised      [numIRQs]int
	dropped     [numIRQs]int
	fault       *fault.Plan
}

// NewIRQController returns a controller bound to sim with a typical
// ~60-cycle GIC-to-handler entry latency.
func NewIRQController(sim *Sim) *IRQController {
	return &IRQController{sim: sim, EntryCycles: 60}
}

// Register installs the handler for an IRQ line.
func (ic *IRQController) Register(irq int, fn func()) {
	if irq < 0 || irq >= numIRQs {
		// lint:invariant IRQ lines are package constants; out-of-range is a wiring bug
		panic(fmt.Sprintf("soc: invalid IRQ %d", irq))
	}
	ic.handlers[irq] = fn
}

// Raise asserts the line; the handler (if any) runs after the entry
// latency.
func (ic *IRQController) Raise(irq int) {
	if irq < 0 || irq >= numIRQs {
		// lint:invariant IRQ lines are package constants; out-of-range is a wiring bug
		panic(fmt.Sprintf("soc: invalid IRQ %d", irq)) // lint:alloc invariant panic path
	}
	ic.raised[irq]++
	if ic.fault.OnIRQ(irq) {
		// The line was asserted but the PS never sees it: the fault
		// model for a masked/lost interrupt. Raised still counts the
		// assertion; Dropped records the loss.
		ic.dropped[irq]++
		return
	}
	if fn := ic.handlers[irq]; fn != nil {
		ic.sim.Schedule(ClkPS.CyclesPS(ic.EntryCycles), fn)
	}
}

// Raised reports how many times the line has been asserted.
func (ic *IRQController) Raised(irq int) int { return ic.raised[irq] }

// Dropped reports how many assertions of the line were lost to fault
// injection.
func (ic *IRQController) Dropped(irq int) int { return ic.dropped[irq] }

// SetFaultPlan installs the fault injector consulted on every Raise.
// A nil plan disables injection.
func (ic *IRQController) SetFaultPlan(p *fault.Plan) { ic.fault = p }

// PipelineModel is the timing model of a streaming detection
// accelerator on the PL: a deep pipeline consuming CyclesPerPixel
// fabric cycles per input pixel (1.0 would be the ideal one
// pixel/cycle; line blanking and memory access patterns push the
// implemented pipelines to ~1.2, which is what turns the 125 MHz
// fabric into the paper's 50 fps at 1080p).
type PipelineModel struct {
	Name           string
	Clk            Clock
	CyclesPerPixel float64
}

// NewDetectionPipeline returns the vehicle/pedestrian pipeline timing
// of the paper: 125 MHz, 1.2 cycles/pixel.
func NewDetectionPipeline(name string) PipelineModel {
	return PipelineModel{Name: name, Clk: ClkPL, CyclesPerPixel: 1.2}
}

// FramePS returns the time to stream one w x h frame through the
// pipeline.
func (p PipelineModel) FramePS(w, h int) uint64 {
	cycles := uint64(float64(w*h) * p.CyclesPerPixel)
	return p.Clk.CyclesPS(cycles)
}

// FPS returns the sustained frame rate for w x h frames.
func (p PipelineModel) FPS(w, h int) float64 {
	return 1 / Seconds(p.FramePS(w, h))
}

// Zynq assembles the platform of Fig. 6: the simulator, clocks, the
// port inventory, the interrupt controller and a tracer.
type Zynq struct {
	Sim   *Sim
	IRQ   *IRQController
	Trace *trace.Tracer

	// Ports of Fig. 6: three HP ports for frame/result traffic and a
	// GP port for control.
	HP0, HP1, HP2 *BurstLink
	GP0           *BurstLink

	// Configuration paths (§IV-A).
	PCAP      *BurstLink
	ICAP      *BurstLink
	ZyCAPFeed *BurstLink
	PLDDRFeed *BurstLink

	// Detection pipelines.
	VehiclePipe    PipelineModel
	PedestrianPipe PipelineModel

	// StreamFrame's recycled completions and its last frame-start
	// detail, so a steady-state frame allocates neither.
	freeDone   []*frameDone
	geomW      int
	geomH      int
	geomDetail string
}

// TraceEvents bounds the platform tracer NewZynq installs: the most
// recent events of about a thousand frames at the adaptive system's
// four a frame. A caller that wants a whole run's trace lifts it with
// Trace.Unbound.
const TraceEvents = 4096

// SetFaultPlan installs the fault injector on the platform's shared
// infrastructure (currently the interrupt controller; DMA engines and
// PR controllers take the plan directly). A nil plan disables
// injection.
func (z *Zynq) SetFaultPlan(p *fault.Plan) { z.IRQ.SetFaultPlan(p) }

// NewZynq builds the platform.
func NewZynq() *Zynq {
	sim := &Sim{}
	return &Zynq{
		Sim:            sim,
		IRQ:            NewIRQController(sim),
		Trace:          trace.New(TraceEvents),
		HP0:            NewHPPort("hp0"),
		HP1:            NewHPPort("hp1"),
		HP2:            NewHPPort("hp2"),
		GP0:            NewGPPort("gp0"),
		PCAP:           NewPCAPLink(),
		ICAP:           NewICAPLink(),
		ZyCAPFeed:      NewZyCAPFeed(),
		PLDDRFeed:      NewPLDDRFeed(),
		VehiclePipe:    NewDetectionPipeline("vehicle"),
		PedestrianPipe: NewDetectionPipeline("pedestrian"),
	}
}

// StreamFrame models one frame traversing input DMA (HP port), the
// named pipeline and the result DMA, calling done at completion and
// raising the DMA completion IRQ. It returns the completion time.
// Frame input dominates; the detection-result payload is tiny and is
// folded into the pipeline drain.
func (z *Zynq) StreamFrame(pipe PipelineModel, w, h, bytesPerPixel int, hp *BurstLink, irq int, done func()) uint64 {
	frameBytes := w * h * bytesPerPixel
	// The input DMA occupies the HP port (serializing with any other
	// stream sharing it) while the pipeline processes the stream; the
	// frame completes when the slower of the two is done, plus one
	// pipeline fill latency.
	dmaFinish := hp.Start(z.Sim, frameBytes, nil)
	pipeFinish := z.Sim.Now() + pipe.FramePS(w, h)
	finish := dmaFinish
	if pipeFinish > finish {
		finish = pipeFinish
	}
	finish += pipe.Clk.CyclesPS(2048) // pipeline fill/drain latency
	if w != z.geomW || h != z.geomH || z.geomDetail == "" {
		z.geomW, z.geomH, z.geomDetail = w, h, fmt.Sprintf("%dx%d", w, h) // lint:alloc formatted once per frame geometry, not per frame
	}
	z.Trace.Record(z.Sim.Now(), pipe.Name, "frame-start", z.geomDetail)
	d := z.takeDone()
	d.name, d.irq, d.done = pipe.Name, irq, done
	z.Sim.Schedule(finish-z.Sim.Now(), d.fire)
	return finish
}

// frameDone is one pending StreamFrame completion. Completions are
// recycled through the platform's free list, each with its fire
// callback bound once, so scheduling one allocates nothing in steady
// state.
type frameDone struct {
	z    *Zynq
	name string
	irq  int
	done func()
	fire func() // run, bound once
}

// takeDone returns a free completion, making one when none is free.
func (z *Zynq) takeDone() *frameDone {
	if n := len(z.freeDone); n > 0 {
		d := z.freeDone[n-1]
		z.freeDone = z.freeDone[:n-1]
		return d
	}
	d := &frameDone{z: z}
	d.fire = d.run
	return d
}

// run completes the frame: the trace record, the DMA completion IRQ,
// then the caller's callback. The completion is free again before the
// callback runs, which may stream another frame.
func (d *frameDone) run() {
	z, done := d.z, d.done
	z.Trace.Record(z.Sim.Now(), d.name, "frame-done", "")
	z.IRQ.Raise(d.irq)
	d.done = nil
	z.freeDone = append(z.freeDone, d) // lint:alloc grows the completion free list to the frames in flight once
	if done != nil {
		done()
	}
}
