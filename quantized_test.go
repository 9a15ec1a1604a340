package advdet

import (
	"reflect"
	"testing"

	"advdet/internal/synth"
)

// TestQuantizedNearTieKeepsFloatWinner is the regression gate for the
// quantized lane's score contract on a near-tie scene: a fixed 640x360
// day camera whose frame holds two overlapping vehicle windows with
// near-equal margins. When the lane reported the quantized score of a
// window it accepted outright, both windows quantized to the same
// score (0.6339) and NMS kept [342,98 196x197] where the float lane
// keeps [351,78 157x157]. With every accepted window re-scored in
// float, the quantized system's detections equal the float system's
// exactly, boxes and scores.
func TestQuantizedNearTieKeepsFloatWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the Full-quality detectors")
	}
	dets, err := TrainDetectors(1, Full)
	if err != nil {
		t.Fatal(err)
	}
	// Camera 1 of a seed-17 two-camera static-highway rig, frame 25.
	seed, cam := uint64(17), uint64(1)
	camSeed := seed*0x9e3779b97f4a7c15 + cam*0x632be59bd9b4e019 + 1
	sc := synth.NewStaticHighway(camSeed, 640, 360, synth.Day, 4).Frame(25)
	detect := func(opts ...Option) FrameResult {
		sys, err := NewSystem(dets, append(opts, WithParallelism(1))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.ProcessFrame(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	float := detect()
	quant := detect(WithQuantizedScan())
	if len(float.Vehicles) == 0 {
		t.Fatal("float scan found no vehicle; the scene no longer exercises the near tie")
	}
	if !reflect.DeepEqual(quant.Vehicles, float.Vehicles) {
		t.Fatalf("quantized vehicles %v, float %v", quant.Vehicles, float.Vehicles)
	}
	if !reflect.DeepEqual(quant.Pedestrians, float.Pedestrians) {
		t.Fatalf("quantized pedestrians %v, float %v", quant.Pedestrians, float.Pedestrians)
	}
}
