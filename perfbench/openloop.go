package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sloLimit is the latency limit the serve workloads are held to: p99 of
// the latency counted from each request's intended send time.
const sloLimit = 50 * time.Millisecond

// lateMs is how late (ms) the generator may send a request before the
// request counts as late: a tenth of the latency limit, well above the
// timer granularity of a sleeping goroutine.
const lateMs = 5

// minSamples is the smallest sample count whose p99 has minTail samples
// beyond it.
const minSamples = 100 * minTail

// outcome is one request of a load phase. Offsets are from the phase
// start. A request that failed, was refused or timed out has ok=false and
// counts as missing any latency limit.
type outcome struct {
	intended, sent, done time.Duration
	ok                   bool
}

// latency is the time from the intended send to completion: a stall of
// the service or of the generator is charged to every request that was
// due during it (no coordinated omission). Failures are +Inf.
func (o outcome) latency() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return millis(o.done - o.intended)
}

// queue is how late the generator actually sent the request.
func (o outcome) queue() float64 { return millis(o.sent - o.intended) }

// sendFunc sends request i and reports whether it succeeded.
type sendFunc func(i int) bool

// openLoop offers n requests at a fixed rate (requests per second) from
// at most workers goroutines. Request i is due at i/rate after the start;
// a worker that falls behind sends immediately, and the wait is counted
// in the request's latency. It returns once every request has completed.
func openLoop(rate float64, n, workers int, send sendFunc) []outcome {
	out := make([]outcome, n)
	period := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * period)
				sleepUntil(start.Add(due))
				sent := time.Since(start)
				ok := send(i)
				out[i] = outcome{intended: due, sent: sent, done: time.Since(start), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// time.Sleep wakes up to a millisecond late on Linux, which at these
// rates would make the generator, not the service, set the latency;
// nanosleep overshoots by tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// capWindows is how many equal slices the capacity loop is cut into; the
// reported capacity is the median of their completion rates, so one
// stall does not set it.
const capWindows = 6

// closedLoop runs workers clients back to back for dur and returns the
// median over capWindows slices of dur of the successful completions per
// second. Request indexes continue from first.
func closedLoop(dur time.Duration, first, workers int, send sendFunc) (rps float64, attempted, failed int) {
	var next, failN atomic.Int64
	next.Store(int64(first))
	var perWindow [capWindows]atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				if !send(int(next.Add(1) - 1)) {
					failN.Add(1)
					continue
				}
				if k := int(time.Since(start) * capWindows / dur); k < capWindows {
					perWindow[k].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, capWindows)
	for k := range rates {
		rates[k] = float64(perWindow[k].Load()) / (dur.Seconds() / capWindows)
	}
	return median(rates), int(next.Load()) - first, int(failN.Load())
}

// phaseStats summarizes one open-loop phase. P50ms and P99ms are medians
// over consecutive windows of the phase (see windowed); AllP99ms is the
// p99 over the whole phase.
type phaseStats struct {
	Rate      float64 `json:"rate"`
	Samples   int     `json:"samples"`
	Windows   int     `json:"windows"`
	Failed    int     `json:"failed"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	AllP99ms  float64 `json:"all_p99_ms"`
	QueueP99  float64 `json:"queue_p99_ms"`
	LateRatio float64 `json:"late_ratio"`
	Growing   bool    `json:"backlog_growing"`
}

// meets reports whether the phase held the latency limit at p99 without a
// growing backlog.
func (s phaseStats) meets() bool {
	return s.P99ms <= millis(sloLimit) && !s.Growing
}

// summarize computes a phase's statistics, cutting it into consecutive
// windows of a second's requests, and at least minSamples each (the last
// window takes the remainder). A second spans several garbage-collection
// cycles at these rates, so every window sees the same mix of collecting
// and quiet time and the median over windows does not flip with it. It
// fails when the phase cannot fill one window, since its p99 would not be
// supported. A request counts as late when the generator sent it more
// than lateMs after it was due.
func summarize(rate float64, out []outcome) (phaseStats, error) {
	st := phaseStats{Rate: rate, Samples: len(out)}
	if len(out) < minSamples {
		return st, fmt.Errorf("open loop at %.0f/s: %d samples cannot support p99", rate, len(out))
	}
	lat := make([]float64, len(out))
	q := make([]float64, len(out))
	late := 0
	for i, o := range out {
		lat[i] = o.latency()
		q[i] = o.queue()
		if !o.ok {
			st.Failed++
		}
		if q[i] > lateMs {
			late++
		}
	}
	st.Windows = len(out) / max(minSamples, int(rate))
	st.P50ms, st.P99ms = windowed(lat, st.Windows)
	st.AllP99ms, _ = quantile(lat, 0.99)
	st.QueueP99, _ = quantile(q, 0.99)
	st.LateRatio = float64(late) / float64(len(out))
	st.Growing = backlogGrowing(out)
	return st, nil
}

// windowed cuts latencies (in send order) into w equal consecutive
// windows and returns the median over windows of each window's p50 and
// p99: the tail of a typical stretch of the phase, which a stall of the
// machine moves only in the windows it falls into. Every window must hold
// at least minSamples values, so every window's p99 is supported.
func windowed(lat []float64, w int) (p50, p99 float64) {
	p50s, p99s := make([]float64, w), make([]float64, w)
	for k := 0; k < w; k++ {
		win := append([]float64(nil), lat[k*len(lat)/w:(k+1)*len(lat)/w]...)
		p99s[k], _ = quantile(win, 0.99)
		p50s[k], _ = quantile(win, 0.50)
	}
	return median(p50s), median(p99s)
}

// backlogGrowing reports whether requests were queueing at the end of the
// phase: the median send delay over its last tenth exceeds half the
// latency limit. A rate the service sustains drains its queue between
// bursts; an unsustainable one accumulates it.
func backlogGrowing(out []outcome) bool {
	tail := out[len(out)-len(out)/10:]
	q := make([]float64, len(tail))
	for i, o := range tail {
		q[i] = o.queue()
	}
	return median(q) > millis(sloLimit)/2
}

// rung is one step of the slo_rps search.
type rung struct {
	phaseStats
	Meets bool `json:"meets"`
}

// sloStep is the step of the slo_rps search as a share of capacity.
const sloStep = 0.05

// findSLO steps the offered rate down from capacity in sloStep shares of
// it and returns the first rate whose phase meets the limit, with every
// rung measured. measure runs one phase at the given rate.
func findSLO(capacity float64, measure func(rate float64) (phaseStats, error)) (float64, []rung, error) {
	var rungs []rung
	for k := 0; k < int(1/sloStep); k++ {
		rate := capacity * (1 - float64(k)*sloStep)
		st, err := measure(rate)
		if err != nil {
			return 0, rungs, err
		}
		rungs = append(rungs, rung{phaseStats: st, Meets: st.meets()})
		if st.meets() {
			return rate, rungs, nil
		}
	}
	return 0, rungs, fmt.Errorf("no rate down to %.0f%% of capacity %.0f/s meets p99 <= %v", 100*sloStep, capacity, sloLimit)
}
