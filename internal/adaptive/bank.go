package adaptive

import (
	"fmt"

	"advdet/internal/axi"
	"advdet/internal/fault"
	"advdet/internal/soc"
	"advdet/internal/svm"
)

// ModelBank models the two-block-RAM model store of the day/dusk
// configuration (§III-A: "These two configurations are implemented in
// the same way but with different versions of the trained model which
// are stored in two block RAM"). Switching the active model is a
// single AXI-Lite register write — that is why the day<->dusk
// transition needs no reconfiguration and costs no frames.
type ModelBank struct {
	regs   *axi.Lite
	models [2]*svm.Model
	names  [2]string
	active int
	fault  *fault.Plan
	// Switches counts model-select writes, for the stats the examples
	// report.
	Switches int
}

// modelSelectReg is the AXI-Lite offset of the model-select register.
const modelSelectReg = 0x10

// NewModelBank loads the two models into their BRAM slots.
func NewModelBank(sim *soc.Sim, port *soc.BurstLink, dayModel, duskModel *svm.Model) *ModelBank {
	return &ModelBank{
		regs:   axi.NewLite("model-bank", sim, port),
		models: [2]*svm.Model{dayModel, duskModel},
		names:  [2]string{"day", "dusk"},
	}
}

// SetFaultPlan installs the fault injector consulted on every select
// write. Nil disables injection.
func (mb *ModelBank) SetFaultPlan(p *fault.Plan) { mb.fault = p }

// Select activates slot 0 (day) or 1 (dusk); any other slot is an
// error. The register write cost is accounted on the GP port. A
// fault-injected failure returns before any state changes, wrapping
// ErrBankSelect: the previously active model stays live.
func (mb *ModelBank) Select(slot int) error {
	if slot != 0 && slot != 1 {
		return fmt.Errorf("adaptive: model bank slot %d out of range", slot) // lint:alloc cold error path; a bad slot or an injected select fault, not a steady-state frame
	}
	if mb.fault.OnBankSelect() {
		return fmt.Errorf("adaptive: model bank slot %d: %w", slot, ErrBankSelect) // lint:alloc cold error path; a bad slot or an injected select fault, not a steady-state frame
	}
	if slot != mb.active {
		mb.Switches++
	}
	mb.regs.Write(modelSelectReg, uint32(slot))
	mb.active = slot
	return nil
}

// Active returns the live model and its name.
func (mb *ModelBank) Active() (*svm.Model, string) {
	return mb.models[mb.active], mb.names[mb.active]
}

// SwitchCostPS returns the simulated time spent on model-select
// register traffic so far.
func (mb *ModelBank) SwitchCostPS() uint64 { return mb.regs.AccessPS() }

// BRAMBytes returns the storage the bank occupies (both models), for
// the resource model.
func (mb *ModelBank) BRAMBytes() int {
	total := 0
	for _, m := range mb.models {
		if m != nil {
			total += m.WeightBytes()
		}
	}
	return total
}
