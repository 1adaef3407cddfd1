package faults

import (
	"errors"
	"sort"
	"time"

	"repro/internal/detrand"
	"repro/internal/itopo"
)

// Config shapes a generated fault schedule. MTBF fields are per-target
// mean times between window starts; Mean fields are mean window lengths.
// Both draw exponentially, so windows arrive as a Poisson process.
type Config struct {
	Seed     int64
	Duration time.Duration

	// Platform shape: targets are drawn from [0, N) index spaces, which
	// match cdn cluster IDs, itopo router IDs, and itopo link IDs.
	Clusters int
	Routers  int
	Links    int

	// Cluster outages (maintenance windows): the cluster disappears from
	// the platform — unreachable as a destination, silent as a source.
	OutageMTBF time.Duration
	OutageMean time.Duration

	// Measurement-agent crashes: the agent process dies and its scheduled
	// measurements never run, but the cluster stays reachable.
	CrashMTBF time.Duration
	CrashMean time.Duration

	// Link brownouts arrive platform-wide; each picks BrownoutLinks
	// distinct links and inflates them by BrownoutDelay one-way plus
	// BrownoutLoss drop probability.
	BrownoutMTBF  time.Duration
	BrownoutMean  time.Duration
	BrownoutLinks int
	BrownoutDelay time.Duration
	BrownoutLoss  float64

	// ICMP rate limiters: LimitedFrac of routers are governed by a token
	// bucket refilling at LimitRate replies/sec with LimitBurst depth.
	// During a saturation window, ambient demand (LimitDemand replies/sec,
	// jittered per window) exceeds the refill rate and the excess is shed;
	// see dropRate for the fluid approximation.
	LimitedFrac float64
	LimitRate   float64
	LimitBurst  float64
	LimitDemand float64
	LimitMTBF   time.Duration
	LimitMean   time.Duration

	// DstFailPersist is the per-(pair, persistence-window) probability
	// that a destination ignores probes — the schedule's replacement for
	// the prober's static DstFailProb. DstFailTransient is the
	// per-attempt probability of a one-off destination failure, which
	// retries can recover. Standard's 0.21 puts retried traceroute
	// completion at ~75% averaged over seeds (TestCompletionRate).
	DstFailPersist   float64
	DstFailTransient float64

	// PersistWindow quantizes persistent draws (default 10 minutes):
	// retries inside one window see the same verdict, later rounds
	// redraw.
	PersistWindow time.Duration
}

// Standard returns the reference fault plan: tuned so that, with the
// default campaign schedule plus retry and quarantine enabled, traceroute
// completion lands near the paper's ~75% (asserted by the campaign
// completion-rate test).
func Standard(seed int64, duration time.Duration, clusters, routers, links int) Config {
	return Config{
		Seed:     seed,
		Duration: duration,
		Clusters: clusters,
		Routers:  routers,
		Links:    links,

		OutageMTBF: 5 * 24 * time.Hour,
		OutageMean: 3 * time.Hour,

		CrashMTBF: 4 * 24 * time.Hour,
		CrashMean: 45 * time.Minute,

		BrownoutMTBF:  6 * time.Hour,
		BrownoutMean:  90 * time.Minute,
		BrownoutLinks: 6,
		BrownoutDelay: 2 * time.Millisecond,
		BrownoutLoss:  0.05,

		LimitedFrac: 0.3,
		LimitRate:   100,
		LimitBurst:  500,
		LimitDemand: 220,
		LimitMTBF:   18 * time.Hour,
		LimitMean:   2 * time.Hour,

		DstFailPersist:   0.21,
		DstFailTransient: 0.06,
		PersistWindow:    10 * time.Minute,
	}
}

// Heavy returns a stress plan: everything fails roughly twice as often.
func Heavy(seed int64, duration time.Duration, clusters, routers, links int) Config {
	c := Standard(seed, duration, clusters, routers, links)
	c.OutageMTBF /= 2
	c.CrashMTBF /= 2
	c.BrownoutMTBF /= 2
	c.BrownoutLinks *= 2
	c.LimitedFrac = 0.45
	c.LimitDemand = 400
	c.DstFailPersist = 0.34
	c.DstFailTransient = 0.10
	return c
}

// Generate draws the full fault schedule from the config. The result is
// immutable and all its queries are pure, so one Plan serves any number
// of concurrent probers.
func Generate(cfg Config) (*Plan, error) {
	if cfg.Duration <= 0 {
		return nil, errors.New("faults: Duration must be positive")
	}
	if cfg.Clusters < 0 || cfg.Routers < 0 || cfg.Links < 0 {
		return nil, errors.New("faults: platform sizes must be non-negative")
	}
	if cfg.PersistWindow <= 0 {
		cfg.PersistWindow = 10 * time.Minute
	}
	p := &Plan{
		seed:             cfg.Seed,
		persistWindow:    cfg.PersistWindow,
		dstFailPersist:   cfg.DstFailPersist,
		dstFailTransient: cfg.DstFailTransient,
		outages:          make(map[int][]span),
		crashes:          make(map[int][]span),
		limits:           make(map[itopo.RouterID][]limitSpan),
		links:            make(map[itopo.LinkID][]linkSpan),
	}

	for id := 0; id < cfg.Clusters; id++ {
		rng := detrand.New(detrand.Hash(uint64(cfg.Seed), saltGenOutage, uint64(id)))
		if spans := drawSpans(&rng, cfg.Duration, cfg.OutageMTBF, cfg.OutageMean); len(spans) > 0 {
			p.outages[id] = spans
			for _, s := range spans {
				p.events = append(p.events, Event{Kind: KindOutage, Start: s.start, Length: s.end - s.start, Cluster: id})
			}
		}
		rng = detrand.New(detrand.Hash(uint64(cfg.Seed), saltGenCrash, uint64(id)))
		if spans := drawSpans(&rng, cfg.Duration, cfg.CrashMTBF, cfg.CrashMean); len(spans) > 0 {
			p.crashes[id] = spans
			for _, s := range spans {
				p.events = append(p.events, Event{Kind: KindAgentCrash, Start: s.start, Length: s.end - s.start, Cluster: id})
			}
		}
	}

	if cfg.LimitedFrac > 0 {
		for r := 0; r < cfg.Routers; r++ {
			if coin(uint64(cfg.Seed), saltLimitSel, uint64(r)) >= cfg.LimitedFrac {
				continue
			}
			rng := detrand.New(detrand.Hash(uint64(cfg.Seed), saltGenLimit, uint64(r)))
			var list []limitSpan
			for _, s := range drawSpans(&rng, cfg.Duration, cfg.LimitMTBF, cfg.LimitMean) {
				demand := cfg.LimitDemand * (0.75 + 0.5*rng.Float64())
				drop := dropRate(cfg.LimitRate, cfg.LimitBurst, demand, s.end-s.start)
				if drop <= 0 {
					continue
				}
				list = append(list, limitSpan{s, drop})
				p.events = append(p.events, Event{Kind: KindRateLimit, Start: s.start, Length: s.end - s.start,
					Router: itopo.RouterID(r), Drop: drop})
			}
			// The router is governed even when no window produced drops:
			// its static flakiness is still replaced by the (idle) limiter.
			p.limits[itopo.RouterID(r)] = list
		}
	}

	if cfg.Links > 0 && cfg.BrownoutLinks > 0 {
		rng := detrand.New(detrand.Hash(uint64(cfg.Seed), saltGenBrownout))
		for _, s := range drawSpans(&rng, cfg.Duration, cfg.BrownoutMTBF, cfg.BrownoutMean) {
			k := cfg.BrownoutLinks
			if k > cfg.Links {
				k = cfg.Links
			}
			seen := make(map[itopo.LinkID]bool, k)
			links := make([]itopo.LinkID, 0, k)
			for len(links) < k {
				l := itopo.LinkID(rng.IntN(cfg.Links))
				if seen[l] {
					continue
				}
				seen[l] = true
				links = append(links, l)
			}
			sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
			for _, l := range links {
				p.links[l] = append(p.links[l], linkSpan{s, cfg.BrownoutDelay, cfg.BrownoutLoss})
			}
			p.events = append(p.events, Event{Kind: KindBrownout, Start: s.start, Length: s.end - s.start,
				Links: links, Delay: cfg.BrownoutDelay, Loss: cfg.BrownoutLoss})
		}
	}

	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].Start < p.events[j].Start })
	return p, nil
}

// drawSpans draws a Poisson window schedule over [0, duration): idle gaps
// are exponential with mean mtbf, window lengths exponential with mean
// length (floored at one minute, clipped to the horizon).
func drawSpans(rng *detrand.Rand, duration, mtbf, mean time.Duration) []span {
	if mtbf <= 0 || mean <= 0 {
		return nil
	}
	var out []span
	t := time.Duration(rng.ExpFloat64() * float64(mtbf))
	for t < duration {
		l := time.Duration(rng.ExpFloat64() * float64(mean))
		if l < time.Minute {
			l = time.Minute
		}
		end := t + l
		if end > duration {
			end = duration
		}
		out = append(out, span{t, end})
		t = end + time.Duration(rng.ExpFloat64()*float64(mtbf))
	}
	return out
}

// dropRate is the fluid token-bucket approximation: over a saturation
// window of length w where ambient demand exceeds the refill rate, the
// limiter sheds the excess fraction 1 - rate/demand; the bucket's burst
// depth forgives the start of the window, which folds in as an effective
// rate bonus of burst/w.
func dropRate(rate, burst, demand float64, w time.Duration) float64 {
	if demand <= 0 || w <= 0 {
		return 0
	}
	eff := rate + burst/w.Seconds()
	d := 1 - eff/demand
	if d < 0 {
		d = 0
	}
	if d > 0.95 {
		d = 0.95
	}
	return d
}
