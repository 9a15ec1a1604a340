package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"advdet"
	"advdet/internal/adaptive"
	"advdet/internal/pipeline"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json, the workload
// table, the metric tables and the layer map in METRICS.md in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, table %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.file) != len(set.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the table %d", len(set.file), len(set.defs))
		}
		for i, m := range set.file {
			if m.Name != set.defs[i].name || m.Unit != set.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, table %s %s", i, m.Name, m.Unit, set.defs[i].name, set.defs[i].unit)
			}
			if !bytes.Contains(doc, []byte("`"+m.Name+"`")) {
				t.Errorf("METRICS.md does not describe %s", m.Name)
			}
		}
	}
}

// TestSmokeEveryWorkload runs every workload for a few frames, untraced
// and traced, through the command line, and checks that the last line
// is a passing report carrying every metric BENCHMARK.json names for
// that mode, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the detectors and renders 1080p frames")
	}
	b := loadBenchmark(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := realMain([]string{"--workload", w.name, "--seed", "7", "--seconds", "1",
					"--trace", trace, "--frames", "3"}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the report: %v", err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
					t.Fatalf("report %+v", rep)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("report has %d metrics, BENCHMARK.json %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

// TestOutputCheckIsLive gives the run a wrong reference and expects the
// frames checked against it to fail and the run to report incorrect.
func TestOutputCheckIsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the detectors")
	}
	wrong := func(ref [][]refFrame) {
		ref[0][1].peds = append(ref[0][1].peds, advdet.Detection{
			Box: advdet.Rect{X0: 1, Y0: 2, X1: 33, Y1: 66}, Kind: pipeline.KindPedestrian,
		})
	}
	var out, errOut bytes.Buffer
	rep, err := run(context.Background(), config{workload: "fleet-static-360p", seed: 7, seconds: 1,
		frames: 2, mutateRef: wrong}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	// Each untraced pass offers position 1 of camera 0 once.
	w, _ := findWorkload("fleet-static-360p")
	if rep.Correct || rep.Failed != w.passes {
		t.Fatalf("wrong reference passed: %+v", rep)
	}
	if !strings.Contains(errOut.String(), "pedestrian boxes") {
		t.Errorf("failure not reported:\n%s", errOut.String())
	}
}

// TestInvariantChecksAreLive feeds the invariant checks counters that
// break each invariant.
func TestInvariantChecksAreLive(t *testing.T) {
	good := advdet.Stats{Frames: 10, PedestrianFrames: 10, VehicleDropped: 1,
		Reconfigs: []adaptive.Reconfiguration{{Frame: 3, StartPS: 1e12, DonePS: 1e12 + 20_570_000_000, Attempts: 1}}}
	if bad := checkInvariants("ok", good, nil); len(bad) != 0 {
		t.Fatalf("good counters failed: %v", bad)
	}
	for name, mutate := range map[string]func(*advdet.Stats){
		"pedestrian frame skipped": func(s *advdet.Stats) { s.PedestrianFrames-- },
		"two drops for one switch": func(s *advdet.Stats) { s.VehicleDropped++ },
		"slow reconfiguration":     func(s *advdet.Stats) { s.Reconfigs[0].DonePS += 1e9 },
		"retried reconfiguration":  func(s *advdet.Stats) { s.Reconfigs[0].Attempts = 2 },
	} {
		st := good
		st.Reconfigs = append([]adaptive.Reconfiguration(nil), good.Reconfigs...)
		mutate(&st)
		if bad := checkInvariants(name, st, nil); len(bad) == 0 {
			t.Errorf("%s: not detected", name)
		}
	}
	switched := []frameObs{
		{res: advdet.FrameResult{Cond: advdet.Dusk}},
		{res: advdet.FrameResult{Cond: advdet.Dark}},
	}
	if bad := checkInvariants("switch", good, switched); len(bad) == 0 {
		t.Error("a switch without a dropped frame was not detected")
	}
}

// TestBoxCheckOrder holds a non-quantized stream to the reference's box
// order and a quantized one to its box set.
func TestBoxCheckOrder(t *testing.T) {
	a := advdet.Detection{Box: advdet.Rect{X0: 375, Y0: 125, X1: 475, Y1: 225}, Kind: pipeline.KindVehicle}
	b := advdet.Detection{Box: advdet.Rect{X0: 380, Y0: 180, X1: 460, Y1: 260}, Kind: pipeline.KindVehicle}
	c := advdet.Detection{Box: advdet.Rect{X0: 380, Y0: 180, X1: 460, Y1: 261}, Kind: pipeline.KindVehicle}
	ref := []advdet.Detection{a, b}
	if !sameBoxes([]advdet.Detection{b, a}, ref, false) {
		t.Error("reordered box set rejected without order")
	}
	if sameBoxes([]advdet.Detection{b, a}, ref, true) {
		t.Error("reordered boxes accepted with order")
	}
	for _, ordered := range []bool{false, true} {
		if sameBoxes([]advdet.Detection{a, c}, ref, ordered) {
			t.Errorf("changed box accepted (ordered %v)", ordered)
		}
		if sameBoxes([]advdet.Detection{a}, ref, ordered) {
			t.Errorf("missing box accepted (ordered %v)", ordered)
		}
	}
}
