package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{Op: 1, ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		sp(0, -1, "op", 0, 100),
		sp(1, 0, "a", 10, 40),
		sp(2, 0, "b", 30, 60),  // overlaps a: the union is 10..60
		sp(3, 0, "c", 90, 120), // runs past the parent: only 90..100 counts
		sp(4, 1, "a.x", 15, 20),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: 40, 1: 25, 2: 30, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestCoverage(t *testing.T) {
	spans := []span{
		sp(0, -1, "op", 0, 100),
		sp(1, 0, "a", 0, 50),
		sp(2, 0, "b", 50, 90),
		sp(3, -1, "op", 200, 300), // no children
	}
	cov := coverageOf(spans, "op")
	if len(cov) != 2 || cov[0] != 0.9 || cov[1] != 0 {
		t.Errorf("coverage = %v, want [0.9 0]", cov)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.begin(op, -1, "root")
	child := tr.begin(op, root, "child")
	tr.end(child)
	open := tr.begin(op, root, "unfinished")
	_ = open
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Op != op || spans[0].Op != op {
		t.Errorf("spans not linked: %+v", spans)
	}

	var off *tracer // disabled tracer: every call is a no-op
	if id := off.begin(off.newOp(), -1, "x"); id != -1 {
		t.Errorf("disabled tracer returned span id %d", id)
	}
	off.end(-1)
	if off.snapshot() != nil {
		t.Error("disabled tracer recorded spans")
	}
}
