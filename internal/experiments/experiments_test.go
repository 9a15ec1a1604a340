package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"advdet/internal/eval"
	"advdet/internal/pr"
	"advdet/internal/soc"
)

func TestPaperTableIInternallyConsistent(t *testing.T) {
	// The published counts must reproduce the published accuracies.
	accs := map[[2]string]float64{
		{"day", "day"}: 96.00, {"day", "dusk"}: 73.78, {"day", "dusk-subset"}: 77.55,
		{"dusk", "day"}: 20.89, {"dusk", "dusk"}: 82.37, {"dusk", "dusk-subset"}: 86.88,
		{"combined", "day"}: 91.56, {"combined", "dusk"}: 85.34, {"combined", "dusk-subset"}: 90.09,
	}
	for key, want := range accs {
		c := PaperTableI[key]
		if got := 100 * c.Accuracy(); math.Abs(got-want) > 0.02 {
			t.Errorf("%v: counts give %.2f%%, paper says %.2f%%", key, got, want)
		}
	}
}

func TestTableIQuickShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three SVMs")
	}
	rows, err := TableI(TableIOptions{Seed: 11, TrainN: 60, PaperCounts: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	if errs := TableIShapeErrors(rows); len(errs) > 0 {
		t.Fatalf("shape violations: %v", errs)
	}
	var buf bytes.Buffer
	WriteTableI(&buf, rows)
	if !strings.Contains(buf.String(), "combined") {
		t.Fatal("WriteTableI output incomplete")
	}
}

func TestTableIShapeErrorsDetectsViolations(t *testing.T) {
	// Fabricate rows violating every claim.
	mk := func(model, test string, tp, tn, fp, fn int) TableIRow {
		return TableIRow{Model: model, Test: test, Got: eval.Confusion{TP: tp, TN: tn, FP: fp, FN: fn}}
	}
	rows := []TableIRow{
		mk("day", "day", 10, 10, 40, 40),         // weak day model
		mk("day", "dusk", 90, 90, 5, 5),          // day model beats dusk model on dusk
		mk("day", "dusk-subset", 10, 10, 40, 40), // subset worse than full
		mk("dusk", "day", 90, 90, 5, 5),          // dusk model wins day + TP >> FN
		mk("dusk", "dusk", 10, 10, 40, 40),
		mk("dusk", "dusk-subset", 5, 5, 45, 45),
		mk("combined", "day", 95, 95, 1, 1),
		mk("combined", "dusk", 10, 10, 40, 40),
		mk("combined", "dusk-subset", 5, 5, 45, 45),
	}
	errs := TableIShapeErrors(rows)
	if len(errs) < 3 {
		t.Fatalf("only %d violations detected: %v", len(errs), errs)
	}
}

func TestTableIIRowsMatchPaper(t *testing.T) {
	got, paper := TableIIRows()
	if len(got) != len(paper) {
		t.Fatal("row count mismatch")
	}
	for i := range got {
		for j := range got[i].Util {
			if math.Round(got[i].Util[j]) != paper[i].Util[j] {
				t.Errorf("%s util[%d]: %.2f vs paper %v", got[i].Name, j, got[i].Util[j], paper[i].Util[j])
			}
		}
	}
	var buf bytes.Buffer
	WriteTableII(&buf)
	if !strings.Contains(buf.String(), "Reconfigurable Partition") {
		t.Fatal("WriteTableII output incomplete")
	}
}

func TestReconfigComparisonBands(t *testing.T) {
	results, err := ReconfigComparison(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d controllers", len(results))
	}
	for _, r := range results {
		paper := PaperThroughputs[r.Controller]
		if rel := math.Abs(r.MBPerSec-paper) / paper; rel > 0.05 {
			t.Errorf("%s: %.1f MB/s deviates %.1f%% from paper %.0f",
				r.Controller, r.MBPerSec, 100*rel, paper)
		}
	}
	var buf bytes.Buffer
	WriteReconfig(&buf, results)
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("WriteReconfig output incomplete")
	}
}

func TestTransitionCostMatchesPaper(t *testing.T) {
	ms, dropped, err := TransitionCost()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms-20) > 1.5 {
		t.Fatalf("reconfiguration %.2f ms, want ~20", ms)
	}
	if dropped != 1 {
		t.Fatalf("dropped %d frames, want 1", dropped)
	}
}

func TestBaselineDarkQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two classifiers")
	}
	dbnC, haarC, err := BaselineDark(91, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dbnC.Total() != 20 || haarC.Total() != 20 {
		t.Fatalf("totals %d/%d", dbnC.Total(), haarC.Total())
	}
	if dbnC.Accuracy() < 0.8 {
		t.Fatalf("DBN baseline accuracy %v", dbnC.Accuracy())
	}
}

func TestFeatureComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two SVMs")
	}
	hogC, piC, err := FeatureComparison(93, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	if hogC.Accuracy() < 0.7 || piC.Accuracy() < 0.7 {
		t.Fatalf("feature comparison collapsed: HOG %v PIHOG %v", hogC.Accuracy(), piC.Accuracy())
	}
}

func TestTrackingGainQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the dark pipeline")
	}
	detR, trkR, err := TrackingGain(95, 20)
	if err != nil {
		t.Fatal(err)
	}
	if detR < 0 || detR > 1 || trkR < 0 || trkR > 1 {
		t.Fatalf("recalls out of range: %v %v", detR, trkR)
	}
	// Tracking must not lose recall relative to raw detection by more
	// than association noise.
	if trkR < detR-0.15 {
		t.Fatalf("tracking reduced recall: %v -> %v", detR, trkR)
	}
}

func TestLumaThreshSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the dark pipeline")
	}
	points, err := LumaThreshSweep(97, 6, []uint8{90, 245})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// The operating point must beat a near-saturation threshold.
	if points[0].Acc.Accuracy() < points[1].Acc.Accuracy() {
		t.Fatalf("threshold 90 (%v) should beat 245 (%v)",
			points[0].Acc.Accuracy(), points[1].Acc.Accuracy())
	}
}

func TestQuantizationLossNegligible(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an SVM")
	}
	res, err := QuantizationLoss(51, 30, 25)
	if err != nil {
		t.Fatal(err)
	}
	// The Q16.16 datapath must agree with the float reference on
	// (almost) every crop and keep margins within quantization noise.
	if res.Disagreement > 1 {
		t.Fatalf("fixed-point datapath disagrees on %d crops", res.Disagreement)
	}
	if res.MaxMarginErr > 0.01 {
		t.Fatalf("max margin error %v too large", res.MaxMarginErr)
	}
	if res.FixedAcc.Accuracy() < res.FloatAcc.Accuracy()-0.05 {
		t.Fatalf("quantization cost accuracy: %v -> %v",
			res.FloatAcc.Accuracy(), res.FixedAcc.Accuracy())
	}
}

func TestFrameRateMatchesPaper(t *testing.T) {
	if fps := FrameRate(); fps < 48 || fps > 55 {
		t.Fatalf("frame rate %v, paper reports 50", fps)
	}
}

// TestSimulatedClockPinned pins the simulated-clock results at the
// precision benchrepro prints them (-fps, -reconfig), so a change to
// the SoC, PR-controller or adaptive timing models shows up as an
// exact diff rather than drifting inside the paper bands above.
func TestSimulatedClockPinned(t *testing.T) {
	ms, dropped, err := TransitionCost()
	if err != nil {
		t.Fatal(err)
	}
	results, err := ReconfigComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := func(r pr.Result) string {
		return fmt.Sprintf("%s %.1f MB/s %.2f ms", r.Controller, r.MBPerSec, soc.Seconds(r.PS)*1e3)
	}
	if len(results) != 4 {
		t.Fatalf("%d controllers, want 4", len(results))
	}
	for _, c := range []struct{ name, got, want string }{
		{"fps", fmt.Sprintf("%.1f", FrameRate()), "50.2"},
		{"transition", fmt.Sprintf("%.2f ms, %d dropped", ms, dropped), "20.57 ms, 1 dropped"},
		{"controller 0", ctrl(results[0]), "axi-hwicap 19.0 MB/s 420.52 ms"},
		{"controller 1", ctrl(results[1]), "pcap 145.5 MB/s 55.07 ms"},
		{"controller 2", ctrl(results[2]), "zycap 382.1 MB/s 20.96 ms"},
		{"controller 3", ctrl(results[3]), "dma-icap 389.4 MB/s 20.57 ms"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %q, want %q", c.name, c.got, c.want)
		}
	}
}

func TestAdaptiveBeatsFixedStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three detectors and scans many frames")
	}
	rows, err := AdaptiveVsFixed(61, 5)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AdaptiveVsFixedRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	ad := byName["adaptive"]
	for _, name := range []string{"day-only", "dusk-only", "dark-only"} {
		r := byName[name]
		if ad.Overall < r.Overall {
			t.Errorf("adaptive overall %.2f below %s %.2f", ad.Overall, name, r.Overall)
		}
		// Every fixed strategy must collapse in some segment.
		if r.Day > 0.5 && r.Dusk > 0.5 && r.Dark > 0.5 {
			t.Errorf("%s does not collapse anywhere (%.2f/%.2f/%.2f) — "+
				"the adaptive design would be unnecessary", name, r.Day, r.Dusk, r.Dark)
		}
	}
	if ad.Day < 0.6 || ad.Dusk < 0.6 || ad.Dark < 0.6 {
		t.Errorf("adaptive collapses in a segment: %.2f/%.2f/%.2f", ad.Day, ad.Dusk, ad.Dark)
	}
}

func TestDarkAccuracyHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the dark pipeline")
	}
	c, err := DarkAccuracy(33, 25)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy() < 0.85 {
		t.Fatalf("dark accuracy %v (paper: 0.95): %v", c.Accuracy(), c)
	}
}
