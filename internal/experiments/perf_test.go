package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"advdet/internal/pr"
)

// TestPerfBenchReportSchema pins the BENCH_pr5.json contract: the
// schema tag, the drive shape, and the fields downstream tooling keys
// on. Breaking any of these requires a schema bump.
func TestPerfBenchReportSchema(t *testing.T) {
	rep, err := PerfBench()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != PerfSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, PerfSchema)
	}
	if rep.CameraFPS != 50 {
		t.Fatalf("camera fps %d", rep.CameraFPS)
	}
	if rep.ModeledFPS1080p < 48 || rep.ModeledFPS1080p > 55 {
		t.Fatalf("modeled 1080p fps %.1f outside the paper's band", rep.ModeledFPS1080p)
	}
	if rep.Frames != 120 {
		t.Fatalf("frames %d, want 120", rep.Frames)
	}
	if rep.DeadlineHits+rep.DeadlineMisses != uint64(rep.Frames) {
		t.Fatalf("hits %d + misses %d != frames %d",
			rep.DeadlineHits, rep.DeadlineMisses, rep.Frames)
	}
	// The drive crosses dusk->dark and dark->day: two partial
	// reconfigurations, each ~20 ms on dma-icap (paper §IV-B).
	if rep.ReconfigMS < 19 || rep.ReconfigMS > 22 {
		t.Fatalf("reconfig %.2f ms outside [19, 22]", rep.ReconfigMS)
	}
	if rep.VehicleFramesDropped == 0 {
		t.Fatal("drive with two reconfigurations dropped no vehicle frames")
	}
	if !rep.Metrics.Enabled {
		t.Fatal("report's telemetry snapshot not enabled")
	}
	if sense, ok := rep.Metrics.StageByName("sense"); !ok || sense.Count != uint64(rep.Frames) {
		t.Fatalf("sense stage count %d, want %d", sense.Count, rep.Frames)
	}

	// The scan breakdown covers the engine's five stages in datapath
	// order.
	wantStages := []string{"resize", "feature", "blocks", "response", "windows"}
	if len(rep.ScanStages) != len(wantStages) {
		t.Fatalf("%d scan stages, want %d", len(rep.ScanStages), len(wantStages))
	}
	sum := 0.0
	for i, s := range rep.ScanStages {
		if s.Stage != wantStages[i] {
			t.Fatalf("scan stage[%d] = %q, want %q", i, s.Stage, wantStages[i])
		}
		if s.WallMS <= 0 {
			t.Fatalf("scan stage %s reported no wall time", s.Stage)
		}
		sum += s.WallMS
	}
	if rep.ScanTotalMS <= 0 || sum > rep.ScanTotalMS*1.001 || sum < rep.ScanTotalMS*0.999 {
		t.Fatalf("scan stages sum %.3f ms, total %.3f ms", sum, rep.ScanTotalMS)
	}

	// The temporal-cache comparison ran and reused tiles. Cold-vs-warm
	// ordering is asserted loosely (warm no slower than cold) rather
	// than at the benchmark's full speedup: this test shares a loaded
	// CI machine.
	if rep.ScanTemporalColdMS <= 0 || rep.ScanTemporalWarmMS <= 0 {
		t.Fatalf("temporal scan times cold=%.3f warm=%.3f not measured",
			rep.ScanTemporalColdMS, rep.ScanTemporalWarmMS)
	}
	if rep.TileHitRate <= 0 || rep.TileHitRate > 1 {
		t.Fatalf("tile hit rate %.3f outside (0, 1]", rep.TileHitRate)
	}

	// Controllers appear in pr.All() order with positive throughputs.
	all := pr.All()
	if len(rep.Controllers) != len(all) {
		t.Fatalf("%d controllers, want %d", len(rep.Controllers), len(all))
	}
	for i, c := range rep.Controllers {
		if c.Name != all[i].Name() {
			t.Fatalf("controller[%d] = %q, want %q", i, c.Name, all[i].Name())
		}
		if c.MBPerSec <= 0 || c.ReconfigMS <= 0 {
			t.Fatalf("controller %s has non-positive perf: %+v", c.Name, c)
		}
	}
}

// TestPerfBenchJSONRoundTrip ensures the emitted JSON carries every
// schema field faithfully through encode/decode.
func TestPerfBenchJSONRoundTrip(t *testing.T) {
	rep, err := PerfBench()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WritePerfJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got PerfReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != rep.Schema || got.Frames != rep.Frames ||
		got.DeadlineHits != rep.DeadlineHits || len(got.Controllers) != len(rep.Controllers) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", got, rep)
	}
	// The raw JSON must expose the stable top-level keys by name.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema", "camera_fps", "modeled_fps_1080p", "frames",
		"frame_latency_p50_ms", "frame_latency_p99_ms", "deadline_hits", "deadline_misses",
		"reconfig_ms", "vehicle_frames_dropped", "model_switches", "slot_overruns",
		"controllers", "metrics",
		"scan_temporal_cold_ms", "scan_temporal_warm_ms", "tile_hit_rate"} {
		if _, ok := keys[k]; !ok {
			t.Fatalf("JSON missing key %q", k)
		}
	}
}
