package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100, Allocs: 12},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30, Allocs: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 80, Allocs: 7},
		{ID: 4, Parent: 3, Name: "c", Start: 55, End: 60, Allocs: 4}, // a grandchild comes off its parent only
		{ID: 5, Name: "uncounted", Start: 100, End: 120},
		{ID: 6, Parent: 5, Name: "a", Start: 100, End: 110, Allocs: 1},
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerTotals{
		"parent": {Calls: 1, Total: 100, Self: 50, Allocs: 2},
		"a":      {Calls: 2, Total: 30, Self: 30, Allocs: 4},
		"b":      {Calls: 1, Total: 30, Self: 25, Allocs: 3},
		"c":      {Calls: 1, Total: 5, Self: 5, Allocs: 4},
		// A parent that was not counted for stays at zero under counted children.
		"uncounted": {Calls: 1, Total: 20, Self: 10},
	} {
		if got[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, got[name], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 30, End: 70},
		{ID: 3, Parent: 1, Name: "child", Start: 10, End: 50},  // overlaps the first: [10,70] is covered once
		{ID: 4, Parent: 1, Name: "child", Start: 40, End: 45},  // inside both
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent: clipped to [90,100]
	}
	got := selfTimes(spans)
	if want := (layerTotals{Calls: 1, Total: 100, Self: 30}); got["parent"] != want {
		t.Errorf("parent: got %+v, want %+v", got["parent"], want)
	}
	if want := (layerTotals{Calls: 4, Total: 115, Self: 115}); got["child"] != want {
		t.Errorf("child: got %+v, want %+v", got["child"], want)
	}
}

func TestRecorderParentsAndRounds(t *testing.T) {
	r := newRecorder("inner")
	r.nextRound()
	outer := r.begin("outer")
	var sink []byte
	r.time("inner", func() {
		sink = make([]byte, 1<<10)
		time.Sleep(time.Millisecond)
	})
	r.end(outer)
	r.nextRound()
	r.time("outer", func() {})

	if len(r.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(r.spans))
	}
	if in := r.spans[1]; in.Parent != outer || in.Round != 1 || in.End-in.Start < int64(time.Millisecond) || in.Allocs == 0 || sink == nil {
		t.Errorf("inner span %+v: want parent %d, round 1, at least 1 ms long, at least one allocation", in, outer)
	}
	if s := r.spans[2]; s.Parent != 0 || s.Round != 2 || s.Allocs != 0 {
		t.Errorf("second outer span %+v: want a root in round 2, allocations not counted", s)
	}
	totals := selfTimes(r.spans)
	if o := totals["outer"]; o.Calls != 2 || o.Self > o.Total-time.Millisecond {
		t.Errorf("outer totals %+v: the inner span's millisecond must come off its self time", o)
	}
}

func TestTraceFileRoundTrips(t *testing.T) {
	want := traceFile{Workload: "pull-sweep", Seed: 7, Spans: []span{
		{ID: 1, Round: 1, Name: "round", Start: 5, End: 95, Allocs: 9},
		{ID: 2, Parent: 1, Round: 1, Name: "agent.fetch", Start: 10, End: 40, Allocs: 8},
	}}
	path := filepath.Join(t.TempDir(), "out", "trace.json") // the directory is made on demand
	if err := writeTrace(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, wrote %+v", got, want)
	}
}

func TestOutDirIsIgnored(t *testing.T) {
	data, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) == "out/" {
			return
		}
	}
	t.Error("bench/.gitignore does not list out/, where traces are written")
}
