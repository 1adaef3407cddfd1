package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign.run", Start: 0, End: 100},
		// Overlapping children count once; the part of the last one
		// outside its parent does not count.
		{ID: 2, Parent: 1, Name: "store.write", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "analysis.observe", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "store.write", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "store.write", Start: 25, End: 35},
		{ID: 6, Name: "replica.ping", Start: 40, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelfTimes(spans)
	if layers["campaign"] != 50 || layers["store"] != 60 || layers["analysis"] != 20 || layers["replica"] != 5 {
		t.Errorf("layer self times %v", layers)
	}
	if tot := spanTotals(spans); tot["store.write"] != 60 {
		t.Errorf("store.write total %v, want 60", tot["store.write"])
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("serve.request", 0, 7)
	child := tr.begin("client.roundtrip", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Errorf("spans %+v", spans)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x.y", 0, -1); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}
