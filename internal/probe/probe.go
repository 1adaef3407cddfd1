// Package probe implements the measurement tools the platform runs: ping,
// classic traceroute, and Paris traceroute. Probes traverse the virtual
// network (simnet) and emit trace records.
//
// Classic traceroute varies the flow identifier per probe, so per-flow load
// balancers can send successive TTLs down different equal-cost arms and the
// reported path is a stitch of several real paths — the artifact Paris
// traceroute fixes by keeping the flow identifier constant [Augustin et
// al., IMC 2006], and the reason the paper switched to Paris traceroute for
// IPv4 in November 2014.
package probe

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/detrand"
	"repro/internal/faults"
	"repro/internal/itopo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// hopScratch pools the per-traceroute resolve buffer used for classic
// (per-TTL flow) probes, which resolve uncached into caller-owned memory.
var hopScratch = sync.Pool{New: func() any {
	b := make([]itopo.PathHop, 0, 64)
	return &b
}}

// Prober issues measurements on a virtual network.
type Prober struct {
	Net *simnet.Net

	// DstFailProb is the probability the destination does not answer a
	// traceroute (filtered probes, rate limiting): the traceroute is then
	// incomplete, matching the paper's ~75% completion rate together with
	// transient unreachability.
	DstFailProb float64

	// Faults, when non-nil, replaces the static failure coins with the
	// schedule's structured ones: DstFailProb gives way to persistent
	// filtering + per-attempt transient failures + the destination attach
	// router's ICMP rate limiter, governed routers' static ResponseProb
	// gives way to their limiter verdict, and brownout loss applies to
	// ping packets and traceroute destination replies. Set it together
	// with simnet.SetFaults before probing starts.
	Faults *faults.Plan

	// ArtifactProb is the probability that a classic traceroute suffers a
	// mid-measurement path artifact (a stale hop repeated later in the
	// output), occasionally producing AS-path loops (paper: 2.16% of IPv4,
	// 5.5% of IPv6 traceroutes carried AS loops; v6 stayed on classic
	// traceroute for the whole study).
	ArtifactProb float64

	// MaxTTL bounds the probed path length.
	MaxTTL int

	// Measurement telemetry; nil until Instrument.
	mTraceroutes    *obs.Counter
	mPings          *obs.Counter
	mUnreachable    *obs.Counter
	mHops           *obs.Histogram
	mRateLimitDrops *obs.Counter
	mDstRateLimited *obs.Counter

	// Flight recorder; nil until Trace. Individual measurements are far
	// too hot for per-measurement spans, so the recorder sees one
	// coalesced batch event per probeBatch measurements.
	rec    *flight.Recorder
	batchN atomic.Int64
}

// probeBatch is the coalescing factor for flight batch events: one event
// per this many measurements.
const probeBatch = 1024

// Metric names exported by Instrument.
const (
	MetricTraceroutes = "s2s_probe_traceroutes_total"
	MetricPings       = "s2s_probe_pings_total"
	MetricUnreachable = "s2s_probe_unreachable_total"
	MetricHops        = "s2s_probe_traceroute_hops"
	// MetricRateLimitDrops counts TTL-exceeded replies shed by a saturated
	// router rate limiter; MetricDstRateLimited counts destination replies
	// shed by the destination attach router's limiter. Both stay zero
	// without a fault plan.
	MetricRateLimitDrops = "s2s_probe_ratelimit_drops_total"
	MetricDstRateLimited = "s2s_probe_dst_ratelimited_total"
)

// Instrument registers the prober's counters in reg: measurements issued
// per kind, destinations with no route at measurement time, and the
// distribution of reported hop counts. A nil registry is a no-op. Call
// before probing starts; counting never alters measurement outcomes.
func (p *Prober) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.mTraceroutes = reg.Counter(MetricTraceroutes, "traceroutes issued")
	p.mPings = reg.Counter(MetricPings, "pings issued")
	p.mUnreachable = reg.Counter(MetricUnreachable, "measurements that found no route to the destination")
	p.mHops = reg.Histogram(MetricHops, "hops reported per traceroute", obs.LinearBuckets(4, 4, 16))
	p.mRateLimitDrops = reg.Counter(MetricRateLimitDrops, "TTL-exceeded replies shed by saturated router rate limiters")
	p.mDstRateLimited = reg.Counter(MetricDstRateLimited, "destination replies shed by the destination attach router's rate limiter")
}

// Trace attaches a flight recorder: every probeBatch-th measurement emits
// a batch event carrying the cumulative measurement count. A nil recorder
// is a no-op. Call before probing starts.
func (p *Prober) Trace(rec *flight.Recorder) { p.rec = rec }

// countMeasurement advances the batch counter and emits a coalesced batch
// event at every probeBatch boundary.
func (p *Prober) countMeasurement(at time.Duration) {
	if p.rec == nil {
		return
	}
	if n := p.batchN.Add(1); n%probeBatch == 0 {
		p.rec.Event(flight.PhProbeBatch, at, flight.Attrs{N: n})
	}
}

// New returns a Prober with the standard error rates.
func New(n *simnet.Net) *Prober {
	return &Prober{
		Net:          n,
		DstFailProb:  0.17,
		ArtifactProb: 0.06,
		MaxTTL:       64,
	}
}

// serverAddr returns the measurement server address for the family.
func serverAddr(c *cdn.Cluster, v6 bool) netip.Addr {
	if v6 {
		return c.Server6
	}
	return c.Server4
}

// Ping measures the RTT between two measurement servers at virtual time at.
// Records come from the trace pool: consumers that stream them may hand
// them back via trace.RecyclePing.
func (p *Prober) Ping(src, dst *cdn.Cluster, v6 bool, at time.Duration) *trace.Ping {
	rec := trace.NewPooledPing()
	rec.SrcID, rec.DstID = src.ID, dst.ID
	rec.Src, rec.Dst = serverAddr(src, v6), serverAddr(dst, v6)
	rec.V6, rec.At = v6, at
	p.mPings.Inc()
	p.countMeasurement(at)
	rng := p.Net.Rand(simnet.KindPing, src.ID, dst.ID, v6, at)
	// Flow identifiers are stable per directed pair (fixed ports).
	fam := simnet.Family(v6)
	flowF := detrand.Hash(uint64(src.ID), uint64(dst.ID), fam)
	flowR := detrand.Hash(uint64(dst.ID), uint64(src.ID), fam)

	fwd, err := p.Net.ForwardHops(src, dst, v6, flowF, at)
	if err != nil {
		p.mUnreachable.Inc()
		rec.Lost = true
		return rec
	}
	rev, err := p.Net.ForwardHops(dst, src, v6, flowR, at)
	if err != nil {
		p.mUnreachable.Inc()
		rec.Lost = true
		return rec
	}
	cong := p.Net.CongestionDelay(fwd, len(fwd)-1, at) + p.Net.CongestionDelay(rev, len(rev)-1, at)
	extra := p.Net.FaultLoss(fwd, len(fwd)-1, at) + p.Net.FaultLoss(rev, len(rev)-1, at)
	if p.Net.LostFaulted(&rng, cong, extra) {
		rec.Lost = true
		return rec
	}
	base := p.Net.OneWayDelay(fwd, at) + p.Net.OneWayDelay(rev, at) + 4*p.Net.Config().ServerLinkDelay
	rec.RTT = base + p.Net.Noise(&rng, len(fwd)+len(rev))
	return rec
}

// Traceroute measures the hop-by-hop path between two measurement servers.
// With paris=true the flow identifier is held constant across probes.
func (p *Prober) Traceroute(src, dst *cdn.Cluster, v6, paris bool, at time.Duration) *trace.Traceroute {
	rec := trace.NewPooledTraceroute()
	rec.SrcID, rec.DstID = src.ID, dst.ID
	rec.Src, rec.Dst = serverAddr(src, v6), serverAddr(dst, v6)
	rec.V6, rec.Paris, rec.At = v6, paris, at
	p.mTraceroutes.Inc()
	p.countMeasurement(at)
	rng := p.Net.Rand(simnet.KindTraceroute, src.ID, dst.ID, v6, at)
	fam := simnet.Family(v6)
	// base is the pair's stable flow (fixed ports). It also salts the
	// pair's limiter draws: the destination's echo reply keys on base
	// itself and each TTL's exceeded reply on Hash(base, ttl), so each is
	// an independent coin, stable across retry attempts inside one
	// persistence window (see faults.Plan.RouterLimited).
	base := detrand.Hash(uint64(src.ID), uint64(dst.ID), fam)

	// The destination's reply travels the true reverse route.
	revFlow := detrand.Hash(uint64(dst.ID), uint64(src.ID), fam)
	rev, revErr := p.Net.ForwardHops(dst, src, v6, revFlow, at)

	serverLink := p.Net.Config().ServerLinkDelay
	dstAnswers := rng.Float64() >= p.DstFailProb
	if p.Faults != nil {
		// The fault plan replaces the static destination coin (drawn above
		// regardless, keeping the rng stream uniform across pairs within a
		// faulted run) with structured failure: persistent filtering that a
		// retry inside the same persistence window cannot recover, a
		// transient per-attempt failure that it can, the destination attach
		// router's ICMP rate limiter, and brownout loss on the reply path.
		dstAnswers = !p.Faults.DstFiltered(src.ID, dst.ID, v6, at) &&
			!p.Faults.DstFlaky(src.ID, dst.ID, v6, at)
		if dstAnswers {
			if _, drop := p.Faults.RouterLimited(dst.Attach, at, base); drop {
				p.mDstRateLimited.Inc()
				dstAnswers = false
			}
		}
		if dstAnswers && revErr == nil {
			if loss := p.Net.FaultLoss(rev, len(rev)-1, at); loss > 0 && rng.Float64() < loss {
				dstAnswers = false
			}
		}
	}

	// Classic probes derive a fresh flow per TTL, so their resolves are
	// one-shot: resolve into a pooled scratch buffer instead of filling
	// the path cache (and the epoch's intern slab) with entries no later
	// lookup can ever hit.
	var scratch *[]itopo.PathHop
	if !paris {
		scratch = hopScratch.Get().(*[]itopo.PathHop)
		defer hopScratch.Put(scratch)
	}
	for ttl := 1; ttl <= p.MaxTTL; ttl++ {
		var hops []itopo.PathHop
		var err error
		if paris {
			hops, err = p.Net.ForwardHops(src, dst, v6, base, at)
		} else {
			flow := detrand.Hash(base, uint64(ttl), uint64(at))
			*scratch, err = p.Net.ForwardHopsScratch(*scratch, src, dst, v6, flow, at)
			hops = *scratch
		}
		if err != nil {
			if ttl == 1 {
				p.mUnreachable.Inc()
			}
			if errors.Is(err, simnet.ErrUnreachable) {
				break // no route: empty/truncated output
			}
			break
		}
		if ttl >= len(hops) {
			// The probe reaches the destination server.
			if dstAnswers && revErr == nil {
				e2e := p.Net.OneWayDelay(hops, at) + p.Net.OneWayDelay(rev, at) + 4*serverLink
				rec.Hops = append(rec.Hops, trace.Hop{
					Addr: serverAddr(dst, v6),
					RTT:  e2e + p.Net.Noise(&rng, len(hops)+len(rev)),
				})
				rec.Complete = true
				rec.RTT = rec.Hops[len(rec.Hops)-1].RTT
			}
			break
		}
		h := hops[ttl]
		router := p.Net.R.Router(h.Router)
		responds := rng.Float64() < router.ResponseProb
		if p.Faults != nil {
			// Governed routers answer by their limiter's verdict instead of
			// the static coin (which is still drawn, keeping the rng stream
			// aligned between governed and ungoverned routers).
			if limited, drop := p.Faults.RouterLimited(h.Router, at, detrand.Hash(base, uint64(ttl))); limited {
				responds = !drop
				if drop {
					p.mRateLimitDrops.Inc()
				}
			}
		}
		if !responds {
			rec.Hops = append(rec.Hops, trace.Hop{})
			continue
		}
		// TTL-exceeded replies are assumed to return along the reversed
		// forward segment: hop RTT ≈ 2 × (propagation + congestion) up to
		// this hop.
		oneWay := h.Cum + p.Net.CongestionDelay(hops, ttl, at)
		hopRTT := 2*oneWay + 2*serverLink + p.Net.Noise(&rng, ttl)
		addr := p.Net.R.Links[h.InLink].AddrOn(h.Router, v6)
		rec.Hops = append(rec.Hops, trace.Hop{Addr: addr, RTT: hopRTT})
	}

	// Classic traceroute artifact: a mid-measurement path change makes a
	// stale earlier hop reappear later in the output.
	if !paris && len(rec.Hops) >= 4 && rng.Float64() < p.ArtifactProb {
		i := 1 + rng.IntN(len(rec.Hops)/2)
		j := len(rec.Hops)/2 + rng.IntN(len(rec.Hops)/2)
		if i < j && j < len(rec.Hops)-1 { // never clobber the final hop
			rec.Hops[j] = rec.Hops[i]
		}
	}
	p.mHops.Observe(float64(len(rec.Hops)))
	return rec
}
