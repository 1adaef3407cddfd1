package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/trace"
)

// A request the service refused (503) counts as failed even when the
// client's retry then got an answer; a request that never gets an answer
// fails too.
func TestRefusedAndFailedRequestsFail(t *testing.T) {
	var calls atomic.Int64
	body := []byte(`{"records":1}` + "\n")
	mux := http.NewServeMux()
	var self string
	mux.HandleFunc("/view", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"view":{"num":1,"primary":%q},"acked":true}`, self)
	})
	mux.HandleFunc("/api/meta", func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-S2S-Digest", serve.Digest(body))
		w.Write(body)
	})
	mux.HandleFunc("/api/pairs", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	self = srv.URL

	ct := &clientTransport{base: http.DefaultTransport}
	r := &rig{ct: ct, ans: newAnswers(), client: &serve.Client{
		VS: srv.URL, HC: &http.Client{Transport: ct}, Timeout: 300 * time.Millisecond,
	}}
	meta := newRequest("meta", serve.PairQuery{})
	if r.send(1, meta) {
		t.Error("a request refused with 503 and then answered counted as a success")
	}
	if ct.refusals.Load() != 1 || calls.Load() != 2 {
		t.Errorf("refusals %d calls %d, want 1 and 2", ct.refusals.Load(), calls.Load())
	}
	if !r.send(2, meta) {
		t.Error("a plainly answered request failed")
	}
	if r.send(3, newRequest("pairs", serve.PairQuery{})) {
		t.Error("a request that never got an answer counted as a success")
	}
	if r.ans.digests[meta.key()] != serve.Digest(body) || len(r.ans.digests) != 1 {
		t.Errorf("digests %v", r.ans.digests)
	}
}

// A digest that changes for a key already answered is a contradiction.
func TestContradictedDigestIsCaught(t *testing.T) {
	a := newAnswers()
	q := newRequest("series", serve.PairQuery{Src: 1, Dst: 2, To: -1})
	a.note(q, &serve.Response{Digest: "aa", Body: []byte("x")})
	a.note(q, &serve.Response{Digest: "aa", Body: []byte("x")})
	if len(a.contradicted) != 0 {
		t.Fatalf("identical answers flagged: %v", a.contradicted)
	}
	a.note(q, &serve.Response{Digest: "bb", Body: []byte("y")})
	r := &rig{ans: a}
	if _, err := r.check(nil); err == nil {
		t.Error("a contradicted digest passed the check")
	}
}

// On a cold key set, where every pair key is distinct and paths keys
// alone outnumber any overall cap, every endpoint still has answers held
// for the check, series among them, and none holds more than its quota.
func TestColdKeysCheckEveryEndpoint(t *testing.T) {
	a := newAnswers()
	for _, req := range coldStream(5, testPairs(), 0, 120*time.Hour, 20000) {
		a.note(req, &serve.Response{Digest: "d-" + req.key(), Body: []byte(req.key())})
	}
	held := make(map[string]int)
	for _, k := range a.checkedKeys() {
		held[a.reqs[k].endpoint]++
	}
	for _, ep := range []string{"series", "paths", "summary", "meta", "pairs"} {
		if held[ep] == 0 || held[ep] > perEndpointChecked {
			t.Errorf("%s: %d keys held for the check, want 1..%d (all: %v)", ep, held[ep], perEndpointChecked, held)
		}
	}
	if held["series"] != perEndpointChecked || held["paths"] != perEndpointChecked {
		t.Errorf("series and paths fill their quota on 20000 cold requests: %v", held)
	}
	empty := &rig{ans: newAnswers()}
	if _, err := empty.check(nil); err == nil {
		t.Error("a phase that held no series answer passed the check")
	}
}

// Request parameters round-trip through the service's own parser, so the
// benchmark's keys are the service's canonical keys.
func TestRequestKeysMatchTheService(t *testing.T) {
	cold := coldStream(3, testPairs(), 0, 120*time.Hour, 50)
	hot := hotStream(3, testPairs(), 50)
	for _, req := range append(cold, hot...) {
		if !pairEndpoint(req.endpoint) {
			continue
		}
		q, err := serve.ParsePairQuery(req.values())
		if err != nil {
			t.Fatalf("%s: %v", req.key(), err)
		}
		if q.CanonicalKey(req.endpoint) != req.key() {
			t.Errorf("service key %s, benchmark key %s", q.CanonicalKey(req.endpoint), req.key())
		}
	}
	if a, b := coldStream(3, testPairs(), 0, 120*time.Hour, 20), coldStream(3, testPairs(), 0, 120*time.Hour, 20); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave different cold streams")
	}
	if u := universe(testPairs()); len(u) != 3*len(testPairs())+2 {
		t.Errorf("universe of %d keys", len(u))
	}
	if v := newRequest("meta", serve.PairQuery{Src: 4}).values(); len(v) != 0 {
		t.Errorf("meta carries parameters %v", url.Values(v))
	}
}

func testPairs() []trace.PairKey {
	var out []trace.PairKey
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s != d {
				out = append(out, trace.PairKey{SrcID: s, DstID: d}, trace.PairKey{SrcID: s, DstID: d, V6: true})
			}
		}
	}
	return out
}

// The timing wrappers keep every consumer streaming, so the engine still
// recycles records exactly as it does without them.
func TestWrappersKeepStreaming(t *testing.T) {
	tr := newTracer()
	stage := analysis.NewStage(analysis.Config{Interval: roundInterval}, nil, nil)
	fan := campaign.Multi{
		campaign.NewWriteSink(&timedWriter{tr: tr}),
		&timedStage{s: stage, tr: tr},
	}
	if !streamsAll(fan) {
		t.Error("wrapped consumers stopped streaming")
	}
	if streamsAll(campaign.Multi{&campaign.Collector{}}) {
		t.Error("a retaining consumer counted as streaming")
	}
}

// The cold stream offers work of the same size whatever its seed: every
// block of 100 requests holds the exact endpoint mix, no block of
// len(pairs) requests asks for a pair twice, windows lie in the span
// and are spread over it (narrow ones included), and no key repeats.
func TestColdStreamIsStratified(t *testing.T) {
	pairs := testPairs()
	span := 120 * time.Hour
	cold := coldStream(9, pairs, 0, span, 2400)
	want := map[string]int{"series": 60, "paths": 25, "meta": 8, "pairs": 5, "summary": 2}
	for b := 0; b < len(cold); b += 100 {
		got := make(map[string]int)
		for _, req := range cold[b : b+100] {
			got[req.endpoint]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("requests %d..%d: endpoint mix %v, want %v", b, b+99, got, want)
		}
	}
	seen := make(map[string]bool)
	var asked map[trace.PairKey]bool
	var narrow, wide int
	for i, req := range cold {
		if i%len(pairs) == 0 {
			asked = make(map[trace.PairKey]bool)
		}
		if !pairEndpoint(req.endpoint) {
			continue
		}
		if p := req.q.Key(); asked[p] {
			t.Fatalf("request %d asks for %v a second time in its block of %d", i, p, len(pairs))
		} else {
			asked[p] = true
		}
		q := req.q
		if q.From < 0 || q.To <= q.From || q.To > span+1 || q.Step < roundInterval {
			t.Fatalf("%s: window outside the span", req.key())
		}
		if seen[req.key()] {
			t.Fatalf("%s repeats", req.key())
		}
		seen[req.key()] = true
		switch w := q.To - q.From; {
		case w < roundInterval:
			narrow++
		case w > span/2:
			wide++
		}
	}
	if narrow == 0 || wide == 0 {
		t.Errorf("%d windows narrower than a round, %d wider than half the span; want both", narrow, wide)
	}
}

// The hot stream redraws its popularity ranking every hotEpoch requests,
// so its most requested pair changes from one epoch to the next.
func TestHotStreamRedrawsItsRanking(t *testing.T) {
	hot := hotStream(9, testPairs(), 8*hotEpoch)
	tops := make(map[string]bool)
	for b := 0; b < len(hot); b += hotEpoch {
		count := make(map[string]int)
		top := ""
		for _, req := range hot[b : b+hotEpoch] {
			if !pairEndpoint(req.endpoint) {
				continue
			}
			k := fmt.Sprint(req.q.Src, req.q.Dst, req.q.V6)
			if count[k]++; count[k] > count[top] {
				top = k
			}
		}
		tops[top] = true
	}
	if len(tops) < 2 {
		t.Errorf("the same pair led all 8 epochs: %v", tops)
	}
	if a, b := hotStream(9, testPairs(), 3000), hotStream(9, testPairs(), 3000); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave different hot streams")
	}
}
