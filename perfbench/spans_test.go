package main

import (
	"testing"
	"time"
)

func mkSpan(name string, parent int32, start, end time.Duration, allocs int64) span {
	s := span{Name: name, Parent: parent, Start: start, End: end}
	s.Delta[cAllocs] = allocs
	return s
}

func TestSelfTimeNestedChildren(t *testing.T) {
	// root [0,100) holds a [10,40) and b [50,90); a holds c [20,30).
	spans := []span{
		mkSpan("root", -1, 0, 100, 0),
		mkSpan("a", 0, 10, 40, 0),
		mkSpan("c", 1, 20, 30, 0),
		mkSpan("b", 0, 50, 90, 0),
	}
	st := selfStats(spans)
	want := map[string]time.Duration{"root": 30, "a": 20, "c": 10, "b": 40}
	var sum time.Duration
	for name, w := range want {
		if got := st[name].Self; got != w {
			t.Errorf("%s self = %v, want %v", name, got, w)
		}
		sum += st[name].Self
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Overlapping children are covered once, not twice.
	spans := []span{
		mkSpan("root", -1, 0, 100, 0),
		mkSpan("x", 0, 10, 60, 0),
		mkSpan("x", 0, 40, 80, 0),
	}
	if got := selfStats(spans)["root"].Self; got != 30 {
		t.Errorf("root self = %v, want 30", got)
	}
}

func TestCounterDeltaAttribution(t *testing.T) {
	// The root saw 100 allocations in total, a saw 60 of them and its
	// child c 25; b saw 10. Each is charged only what no child explains.
	spans := []span{
		mkSpan("root", -1, 0, 100, 100),
		mkSpan("a", 0, 10, 40, 60),
		mkSpan("c", 1, 20, 30, 25),
		mkSpan("b", 0, 50, 90, 10),
		mkSpan("b", -1, 100, 110, 5),
	}
	st := selfStats(spans)
	want := map[string]int64{"root": 30, "a": 35, "c": 25, "b": 15}
	var sum int64
	for name, w := range want {
		if got := st[name].Delta[cAllocs]; got != w {
			t.Errorf("%s allocs = %d, want %d", name, got, w)
		}
		sum += st[name].Delta[cAllocs]
	}
	if sum != 105 {
		t.Errorf("attributed %d allocations, want all 105", sum)
	}
	if st["b"].Calls != 2 {
		t.Errorf("b calls = %d, want 2", st["b"].Calls)
	}
}

func TestTracerNestsAndMeasuresDeltas(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off"); id != -1 {
		t.Fatalf("a disabled tracer returned span %d", id)
	}
	tr.on = true
	root := tr.begin("root")
	child := tr.begin("child")
	sink = make([]byte, 1<<10)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[child].Delta[cAllocs] < 1 {
		t.Errorf("child saw %d allocations, want at least 1", tr.spans[child].Delta[cAllocs])
	}
	if tr.spans[root].Delta[cAllocs] < tr.spans[child].Delta[cAllocs] {
		t.Errorf("root delta %d below its child's %d", tr.spans[root].Delta[cAllocs], tr.spans[child].Delta[cAllocs])
	}
	light := tr.beginTime("light")
	sink = make([]byte, 1<<10)
	tr.end(light)
	if d := tr.spans[light].Delta[cAllocs]; d != 0 {
		t.Errorf("time-only span recorded %d allocations", d)
	}
}

var sink []byte
