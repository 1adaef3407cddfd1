package probe

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// TestMeasurementHotPathAllocs guards the warm per-measurement path. With
// the routing view built, the path cache and interner generation filled,
// and the record pools primed, a repeated Paris traceroute or ping at
// fixed coordinates should allocate nothing: the record comes from the
// pool, its hop list reuses retained capacity, the PRNG is a stack value,
// and resolved paths are cache hits. The bound tolerates a stray allocation
// from an incidental GC clearing a sync.Pool mid-measurement; the naive
// path this guards against costs dozens per measurement.
func TestMeasurementHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; pooled paths cannot be allocation-free")
	}
	f := newFixture(t, 9, 3, 60)
	src, dst := f.pair(t)
	at := 6 * time.Hour
	for i := 0; i < 4; i++ { // warm caches and pools
		trace.RecycleTraceroute(f.prober.Traceroute(src, dst, false, true, at))
		trace.RecyclePing(f.prober.Ping(src, dst, false, at))
	}

	if allocs := testing.AllocsPerRun(200, func() {
		trace.RecycleTraceroute(f.prober.Traceroute(src, dst, false, true, at))
	}); allocs > 1 {
		t.Errorf("warm Paris traceroute allocates %.2f times per measurement, want ~0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		trace.RecyclePing(f.prober.Ping(src, dst, false, at))
	}); allocs > 1 {
		t.Errorf("warm ping allocates %.2f times per measurement, want ~0", allocs)
	}
}
