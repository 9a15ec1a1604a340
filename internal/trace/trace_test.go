package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndEventsSorted(t *testing.T) {
	var tr Tracer
	tr.Record(300, "a", "x", "")
	tr.Record(100, "b", "y", "")
	tr.Record(200, "c", "z", "")
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].PS != 100 || evs[2].PS != 300 {
		t.Fatalf("not sorted: %+v", evs)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestSpan(t *testing.T) {
	var tr Tracer
	tr.Record(1000, "pr", "start", "")
	tr.Record(5000, "pr", "done", "")
	ps, ok := tr.Span("pr", "start", "done")
	if !ok || ps != 4000 {
		t.Fatalf("Span = %d, %v", ps, ok)
	}
	if _, ok := tr.Span("pr", "start", "missing"); ok {
		t.Fatal("span to missing end reported ok")
	}
	if _, ok := tr.Span("other", "start", "done"); ok {
		t.Fatal("span for wrong source reported ok")
	}
	// Empty source matches any.
	if ps, ok := tr.Span("", "start", "done"); !ok || ps != 4000 {
		t.Fatal("wildcard source failed")
	}
}

func TestCountAndReset(t *testing.T) {
	var tr Tracer
	tr.Record(1, "s", "evt", "")
	tr.Record(2, "s", "evt", "")
	tr.Record(3, "s", "other", "")
	if tr.Count("evt") != 2 {
		t.Fatalf("Count = %d", tr.Count("evt"))
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestWriteCSV(t *testing.T) {
	var tr Tracer
	tr.Record(42, "src", "name", "detail")
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "ps,source,name,detail\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "42,src,name,detail") {
		t.Fatalf("missing row: %q", out)
	}
}

func TestConcurrentRecord(t *testing.T) {
	var tr Tracer
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Record(uint64(j), "w", "e", "")
			}
		}(i)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestBoundedKeepsMostRecent: a bounded tracer keeps its newest events
// in time order, and Unbound lifts the bound without losing what is
// retained.
func TestBoundedKeepsMostRecent(t *testing.T) {
	tr := New(4)
	for ps := uint64(1); ps <= 10; ps++ {
		tr.Record(ps, "s", "e", "")
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("bounded tracer holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.PS != uint64(7+i) {
			t.Fatalf("event %d at %d ps, want %d: %+v", i, e.PS, 7+i, evs)
		}
	}
	tr.Unbound()
	for ps := uint64(11); ps <= 20; ps++ {
		tr.Record(ps, "s", "e", "")
	}
	if tr.Len() != 14 {
		t.Fatalf("unbounded tracer holds %d events, want 14", tr.Len())
	}
	if evs := tr.Events(); evs[0].PS != 7 || evs[13].PS != 20 {
		t.Fatalf("lifted tracer lost its retained events: first %d last %d", evs[0].PS, evs[13].PS)
	}
}
