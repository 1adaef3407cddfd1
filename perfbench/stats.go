package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A
// p99 read from fewer than 1000 samples rests on fewer than ten
// observations and is not reported.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (sorted in place) and
// whether at least minTail samples lie strictly beyond its rank.
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i], len(xs)-1-i >= minTail
}

// median is the middle value of xs (mean of the two middle values for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// seconds and millis convert durations to the units the metrics use.
func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, user and system,
// over all its threads. The kernel leaves out the time the hypervisor gave
// the virtual CPU to other guests (steal), so a CPU-time difference does
// not depend on the share of a shared host the process got, though it
// still moves with how fast the host runs it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
