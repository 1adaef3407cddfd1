package main

import (
	"math"
	"testing"
)

// The tracing overhead compares the traced pass's one world with the same
// world of the untraced pass, not with the figure over all its worlds: a
// traced pass that reproduces the last world exactly has no overhead.
func TestOverheadComparesTheSameWorld(t *testing.T) {
	o := options{workload: "campaign"}
	plain, traced := newResult(o), newResult(o)
	plain.perWorldMean("store_mb", []float64{9.1, 11.2, 9.9, 10.4, 9.6})
	traced.perWorldMean("store_mb", []float64{9.6})
	plain.perWorld("setup_s", []float64{0.3, 0.1, 0.2, 0.9, 0.2})
	plain.e2e["p50_ms"], traced.e2e["p50_ms"] = 1.5, 1.75
	if m := plain.e2e["store_mb"]; math.Abs(m-10.04) > 1e-9 {
		t.Fatalf("mean over worlds %v, want 10.04", m)
	}
	if m := plain.e2e["setup_s"]; m != 0.2 {
		t.Fatalf("median over worlds %v, want 0.2", m)
	}
	traced.addOverhead(plain)
	if d := traced.overhead["store_mb"]; d != 0 {
		t.Errorf("overhead.store_mb %v for a reproduced store, want 0", d)
	}
	if d := traced.overhead["p50_ms"]; d != 0.25 {
		t.Errorf("overhead.p50_ms %v, want 0.25", d)
	}
}

// The worlds of a run are distinct from each other and from those of
// other runs, as math/rand sees them: it reduces seeds modulo 2³¹−1.
func TestWorldSeedsDoNotOverlap(t *testing.T) {
	seen := make(map[int64]int64)
	for seed := int64(1); seed <= 200; seed++ {
		for rep := 0; rep < campaignWorlds; rep++ {
			ws := worldSeed(seed, rep) % (1<<31 - 1)
			if prev, ok := seen[ws]; ok {
				t.Fatalf("world %d of seed %d is a world of seed %d", rep, seed, prev)
			}
			seen[ws] = seed
		}
	}
}
