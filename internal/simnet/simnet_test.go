package simnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/bgp"
	"repro/internal/cdn"
	"repro/internal/congestion"
	"repro/internal/detrand"
	"repro/internal/itopo"
)

type world struct {
	net  *itopo.Network
	dyn  *bgp.Dynamics
	cong *congestion.Model
	plat *cdn.Platform
	sim  *Net
}

func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	dur := 14 * 24 * time.Hour
	topo, err := astopo.Generate(astopo.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	rnet, err := itopo.Build(topo, itopo.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := bgp.NewDynamics(topo, bgp.DefaultDynConfig(seed, dur))
	if err != nil {
		t.Fatal(err)
	}
	cong, err := congestion.NewModel(rnet, congestion.DefaultConfig(seed, dur))
	if err != nil {
		t.Fatal(err)
	}
	plat, err := cdn.Deploy(rnet, cdn.DefaultConfig(seed, 80))
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		net: rnet, dyn: dyn, cong: cong, plat: plat,
		sim: New(rnet, dyn, cong, DefaultConfig(seed)),
	}
}

func (w *world) pair(t *testing.T) (*cdn.Cluster, *cdn.Cluster) {
	t.Helper()
	for i := 0; i < len(w.plat.Clusters); i++ {
		for j := i + 1; j < len(w.plat.Clusters); j++ {
			a, b := w.plat.Clusters[i], w.plat.Clusters[j]
			if a.HostAS != b.HostAS {
				return a, b
			}
		}
	}
	t.Fatal("no cross-AS pair")
	return nil, nil
}

func TestForwardHopsBasics(t *testing.T) {
	w := newWorld(t, 1)
	src, dst := w.pair(t)
	hops, err := w.sim.ForwardHops(src, dst, false, 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 2 {
		t.Fatalf("too few hops: %d", len(hops))
	}
	if hops[0].Router != src.Attach || hops[len(hops)-1].Router != dst.Attach {
		t.Error("path endpoints wrong")
	}
	if hops[0].Cum != 0 {
		t.Error("first hop must have zero cumulative delay")
	}
}

func TestForwardHopsCached(t *testing.T) {
	w := newWorld(t, 2)
	src, dst := w.pair(t)
	a, err := w.sim.ForwardHops(src, dst, false, 5, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.sim.ForwardHops(src, dst, false, 5, time.Hour+time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Same epoch, same flow: identical backing array (cache hit).
	if &a[0] != &b[0] {
		t.Error("expected cache hit within an epoch")
	}
}

func TestOneWayDelayIncludesCongestion(t *testing.T) {
	w := newWorld(t, 3)
	lids := w.cong.CongestedLinks()
	if len(lids) == 0 {
		t.Skip("no congested links under this seed")
	}
	// Construct a synthetic two-hop path over a congested link and compare
	// delays at peak vs off-peak.
	prof, _ := w.cong.Profile(lids[0])
	link := w.net.Links[lids[0]]
	hops := []itopo.PathHop{
		{Router: link.A, InLink: -1, Cum: 0},
		{Router: link.B, InLink: link.ID, Cum: link.Delay},
	}
	mid := (prof.Start + prof.End) / 2
	dayStart := mid - mid%(24*time.Hour)
	var lo, hi time.Duration
	for h := 0; h < 24; h++ {
		d := w.sim.OneWayDelay(hops, dayStart+time.Duration(h)*time.Hour)
		if lo == 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < prof.Amplitude/2 {
		t.Errorf("congestion swing %v too small for amplitude %v", hi-lo, prof.Amplitude)
	}
	if lo != link.Delay {
		t.Errorf("off-peak delay %v != propagation %v", lo, link.Delay)
	}
}

func TestBaseRTTSumsDirections(t *testing.T) {
	w := newWorld(t, 4)
	src, dst := w.pair(t)
	at := 2 * time.Hour
	rtt, err := w.sim.BaseRTT(src, dst, false, 1, 2, at)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := w.sim.ForwardHops(src, dst, false, 1, at)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := w.sim.ForwardHops(dst, src, false, 2, at)
	if err != nil {
		t.Fatal(err)
	}
	want := w.sim.OneWayDelay(fwd, at) + w.sim.OneWayDelay(rev, at) + 4*w.sim.Config().ServerLinkDelay
	if rtt != want {
		t.Errorf("BaseRTT = %v, want %v", rtt, want)
	}
	if rtt <= 0 {
		t.Error("non-positive RTT")
	}
}

func TestUnreachableV6(t *testing.T) {
	w := newWorld(t, 5)
	var v4only, ds *cdn.Cluster
	for _, c := range w.plat.Clusters {
		if !c.DualStack() && v4only == nil {
			v4only = c
		} else if c.DualStack() && ds == nil {
			ds = c
		}
	}
	if v4only == nil || ds == nil {
		t.Skip("no v4-only cluster")
	}
	if _, err := w.sim.ForwardHops(ds, v4only, true, 1, 0); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if p := w.sim.ASPath(ds, v4only, true, 0); p != nil {
		t.Errorf("v6 AS path to v4-only host = %v", p)
	}
}

// TestRandDeterministicPerCoordinates checks that a measurement's
// generator is keyed by exactly the detrand contract, so the stream
// statistics detrand's tests establish for adjacent keys hold here, and
// that every coordinate enters the key.
func TestRandDeterministicPerCoordinates(t *testing.T) {
	w := newWorld(t, 6)
	base := w.sim.Rand(KindPing, 1, 2, false, time.Hour)
	if base != w.sim.Rand(KindPing, 1, 2, false, time.Hour) {
		t.Fatal("same coordinates produced different generators")
	}
	want := detrand.New(detrand.Hash(6, uint64(KindPing), 1, 2, Family(false), uint64(time.Hour)))
	if base != want {
		t.Fatal("generator is not keyed by Hash(seed, kind, src, dst, family, time)")
	}
	for name, v := range map[string]detrand.Rand{
		"kind":      w.sim.Rand(KindTraceroute, 1, 2, false, time.Hour),
		"direction": w.sim.Rand(KindPing, 2, 1, false, time.Hour),
		"family":    w.sim.Rand(KindPing, 1, 2, true, time.Hour),
		"time":      w.sim.Rand(KindPing, 1, 2, false, time.Hour+1),
	} {
		if v == base {
			t.Errorf("%s should salt the stream", name)
		}
	}
}

func TestNoiseShape(t *testing.T) {
	w := newWorld(t, 7)
	rng := w.sim.Rand(KindPing, 1, 2, false, 0)
	var sum time.Duration
	n := 2000
	for i := 0; i < n; i++ {
		d := w.sim.Noise(&rng, 15)
		if d < 0 {
			t.Fatal("negative noise")
		}
		sum += d
	}
	mean := sum / time.Duration(n)
	// 15 hops × ~96µs (half-normal mean of 120µs scale) ≈ 1.4ms, plus
	// spike contribution ~0.4ms.
	if mean < 500*time.Microsecond || mean > 5*time.Millisecond {
		t.Errorf("mean noise = %v, want low single-digit ms", mean)
	}
}

func TestLostRate(t *testing.T) {
	w := newWorld(t, 8)
	rng := w.sim.Rand(KindPing, 3, 4, false, 0)
	lost := 0
	n := 20000
	for i := 0; i < n; i++ {
		if w.sim.LostFaulted(&rng, 0, 0) {
			lost++
		}
	}
	rate := float64(lost) / float64(n)
	if rate < 0.001 || rate > 0.02 {
		t.Errorf("loss rate = %.4f, want ~0.004", rate)
	}
}

// TestPathCacheBounded floods the resolved-path cache with never-repeating
// flow IDs (the classic-traceroute access pattern) and asserts the
// configured bound holds: no shard may exceed its share, so the total stays
// at or below MaxCachedPaths.
func TestPathCacheBounded(t *testing.T) {
	w := newWorld(t, 9)
	cfg := DefaultConfig(9)
	cfg.MaxCachedPaths = 64
	sim := New(w.net, w.dyn, w.cong, cfg)
	src, dst := w.pair(t)
	for flow := uint64(0); flow < 4096; flow++ {
		if _, err := sim.ForwardHops(src, dst, false, flow, time.Hour); err != nil {
			t.Fatal(err)
		}
		if n := sim.cachedPaths(false); n > 64 {
			t.Fatalf("cache grew to %d entries, bound is 64 (after %d flows)", n, flow+1)
		}
	}
	if n := sim.cachedPaths(false); n == 0 {
		t.Fatal("cache empty after 4096 resolutions")
	}
}

// TestPathCacheConcurrent hammers the sharded cache from many goroutines
// (run under -race) mixing repeated and unique flows across both families.
func TestPathCacheConcurrent(t *testing.T) {
	w := newWorld(t, 10)
	cfg := DefaultConfig(10)
	cfg.MaxCachedPaths = 128
	sim := New(w.net, w.dyn, w.cong, cfg)
	src, dst := w.pair(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				flow := uint64(i % 16)
				if g%2 == 0 {
					flow = uint64(g*1000 + i) // never repeats
				}
				_, err := sim.ForwardHops(src, dst, g%3 == 0 && src.DualStack() && dst.DualStack(), flow, time.Duration(i)*time.Minute)
				if err != nil && !errors.Is(err, ErrUnreachable) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := sim.cachedPaths(false); n > 128 {
		t.Fatalf("v4 cache grew to %d entries, bound is 128", n)
	}
}
