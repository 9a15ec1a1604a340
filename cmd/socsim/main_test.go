package main

import (
	"bytes"
	"strings"
	"testing"

	"advdet/internal/trace"
)

// TestRunOutputRepeats runs the same drive twice and requires the
// same bytes: the report, trace summary included, is a function of
// the flags alone.
func TestRunOutputRepeats(t *testing.T) {
	var a, b bytes.Buffer
	for _, out := range []*bytes.Buffer{&a, &b} {
		if err := run([]string{"-frames", "40", "-faults", "irq:1"}, out); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Fatalf("two runs printed different reports:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "trace: ") {
		t.Fatalf("report has no trace summary:\n%s", a.String())
	}
}

// TestTraceSummarySorted pins the summary's row order: by source, then
// event, whatever order the events were recorded in.
func TestTraceSummarySorted(t *testing.T) {
	evs := []trace.Event{
		{PS: 1000, Source: "vehicle", Name: "frame-start"},
		{PS: 2000, Source: "adaptive", Name: "model-select"},
		{PS: 3000, Source: "vehicle", Name: "frame-done"},
		{PS: 4000, Source: "adaptive", Name: "model-select"},
		{PS: 5000, Source: "dma-icap", Name: "stage-start"},
	}
	var out bytes.Buffer
	printTraceSummary(&out, evs)
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[2:] {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	want := []string{
		"adaptive model-select 2",
		"dma-icap stage-start 1",
		"vehicle frame-done 1",
		"vehicle frame-start 1",
	}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Fatalf("summary rows %q, want %q", rows, want)
	}
}
