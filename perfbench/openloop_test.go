package main

import (
	"math"
	"testing"
	"time"
)

// A stall of the service is charged to every later request that was due
// during it, not only to the request that stalled.
func TestStallChargedToRequestsDueDuringIt(t *testing.T) {
	const stall = 100 * time.Millisecond
	out := openLoop(1000, 300, 1, func(i int) bool {
		if i == 50 {
			time.Sleep(stall)
		}
		return true
	})
	// Request 60 was due at 60ms and could not be sent before the stall
	// ended at about 150ms.
	if l := out[60].latency(); l < 80 {
		t.Errorf("request 60 latency %.1fms, want >= 80ms (it waited behind the stall)", l)
	}
	slow := 0
	for _, o := range out[51:] {
		if o.latency() > millis(sloLimit) {
			slow++
		}
	}
	if slow < 40 {
		t.Errorf("%d requests after the stall over the limit, want >= 40", slow)
	}
	if q := out[60].queue(); q < 80 {
		t.Errorf("request 60 queued %.1fms, want >= 80ms", q)
	}
}

// Failed and refused requests count as missing the latency limit.
func TestFailuresMissTheLimit(t *testing.T) {
	out := make([]outcome, 2000)
	for i := range out {
		due := time.Duration(i) * time.Millisecond
		out[i] = outcome{intended: due, sent: due, done: due + time.Millisecond, ok: i%40 != 0}
	}
	st, err := summarize(1000, out)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(st.P99ms, 1) || st.meets() {
		t.Errorf("2.5%% failed: p99 %v meets %v, want +Inf and false", st.P99ms, st.meets())
	}
	if st.Failed != 50 {
		t.Errorf("failed %d, want 50", st.Failed)
	}
	if st.P50ms != 1 {
		t.Errorf("p50 %v, want 1ms", st.P50ms)
	}
}

// The reported percentile always has at least minTail samples beyond it.
func TestPercentileHasTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		v, ok := quantile(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if ok != (n >= minSamples) {
			t.Fatalf("n=%d: supported=%v", n, ok)
		}
		if ok && beyond < minTail {
			t.Fatalf("n=%d: p99 %v has %d samples beyond it", n, v, beyond)
		}
	}
	if _, err := summarize(100, make([]outcome, minSamples-1)); err == nil {
		t.Error("summarize accepted a phase too short for p99")
	}
}

// Windowed statistics take the median over windows, so one bad window
// does not set the reported p99.
func TestWindowedMedian(t *testing.T) {
	lat := make([]float64, 3*minSamples)
	for i := range lat {
		lat[i] = 1
	}
	for i := 0; i < 100; i++ {
		lat[i] = 500 // a stall inside the first window
	}
	p50, p99 := windowed(lat, 3)
	if p50 != 1 || p99 != 1 {
		t.Errorf("p50 %v p99 %v, want 1 and 1", p50, p99)
	}
}

// fakeServer answers at a fixed capacity: below it the p99 is flat, above
// it the backlog grows. It stands in for the service in the slo_rps
// search.
type fakeServer struct {
	capacity float64
	rates    []float64
}

func (f *fakeServer) measure(rate float64) (phaseStats, error) {
	f.rates = append(f.rates, rate)
	st := phaseStats{Rate: rate, P99ms: 5}
	if rate > 0.82*f.capacity {
		st.P99ms = 80
	}
	if rate > 0.9*f.capacity {
		st.Growing = true
	}
	return st, nil
}

func TestSLOStepDownStopsAtFirstPassingRung(t *testing.T) {
	f := &fakeServer{capacity: 1000}
	slo, rungs, err := findSLO(1000, f.measure)
	if err != nil {
		t.Fatal(err)
	}
	if slo != 800 {
		t.Errorf("slo_rps %v, want 800 (the first rung at or under 82%%)", slo)
	}
	want := []float64{1000, 950, 900, 850, 800}
	if len(f.rates) != len(want) || len(rungs) != len(want) {
		t.Fatalf("measured rates %v, want %v", f.rates, want)
	}
	for i := range want {
		if math.Abs(f.rates[i]-want[i]) > 1e-9 {
			t.Errorf("rung %d at %v, want %v", i, f.rates[i], want[i])
		}
	}
	if rungs[len(rungs)-1].Meets != true || rungs[0].Meets {
		t.Errorf("rung verdicts %+v", rungs)
	}
}

// A rate the service cannot sustain shows as a growing backlog even when
// the latency limit is generous.
func TestGrowingBacklogFailsTheRung(t *testing.T) {
	f := &fakeServer{capacity: 1000}
	st, _ := f.measure(950)
	if st.meets() {
		t.Error("a growing backlog met the limit")
	}
	slow := func(int) bool { time.Sleep(2 * time.Millisecond); return true }
	out := openLoop(1000, 400, 1, slow)
	if !backlogGrowing(out) {
		t.Error("twice the capacity did not grow the backlog")
	}
	if backlogGrowing(openLoop(100, 100, 1, slow)) {
		t.Error("a tenth of the capacity grew the backlog")
	}
}

func TestClosedLoopCountsRequests(t *testing.T) {
	rps, attempted, failed := closedLoop(200*time.Millisecond, 10, 2, func(i int) bool {
		time.Sleep(time.Millisecond)
		return i%2 == 0
	})
	if attempted == 0 || failed == 0 || failed >= attempted || rps <= 0 {
		t.Errorf("rps %v attempted %d failed %d", rps, attempted, failed)
	}
}
