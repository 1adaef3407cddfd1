// Package faults generates and serves deterministic fault schedules for
// the simulated measurement platform: cluster outages (maintenance
// windows), measurement-agent crashes, link brownouts that inflate loss
// and latency, and per-router ICMP rate limiters that shed probe replies
// under ambient load.
//
// A Plan is generated once from a seed and the platform's shape and is
// immutable afterwards; every query is a pure function of its coordinates
// (target, virtual time, salt), so faulted campaigns keep the repo-wide
// determinism contract — identical runs produce identical datasets at any
// worker count, and a resumed run re-derives the exact same fault view
// from the seed.
//
// Failure persistence: draws that model an ongoing condition (a filtering
// destination, a saturated rate limiter) are quantized to a persistence
// window (Config.PersistWindow), so a retry seconds after a failure sees
// the same verdict while the next campaign round — minutes to hours later
// — redraws. Transient draws (DstFlaky, brownout loss) use the exact
// timestamp and therefore redraw on every retry attempt; this split is
// what makes retries recover transient losses without erasing the
// persistent failure floor.
package faults

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/detrand"
	"repro/internal/itopo"
	"repro/internal/obs/flight"
)

// Kind classifies a scheduled fault event.
type Kind uint8

// Fault kinds.
const (
	// KindOutage takes a whole cluster offline: it neither sources
	// measurements nor answers as a destination for the window.
	KindOutage Kind = iota
	// KindAgentCrash kills a cluster's measurement agent: scheduled
	// measurements from it never run (booked as degraded), but the
	// cluster stays reachable as a destination.
	KindAgentCrash
	// KindBrownout inflates a set of links with extra one-way delay and
	// loss for the window.
	KindBrownout
	// KindRateLimit saturates a router's ICMP rate limiter: a fraction
	// of its TTL-exceeded / echo replies is shed for the window.
	KindRateLimit
)

// String names the kind for telemetry and the flight record.
func (k Kind) String() string {
	switch k {
	case KindOutage:
		return "outage"
	case KindAgentCrash:
		return "agent_crash"
	case KindBrownout:
		return "brownout"
	case KindRateLimit:
		return "rate_limit"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault window. Which target fields are meaningful
// depends on Kind.
type Event struct {
	Kind   Kind
	Start  time.Duration // virtual time the window opens
	Length time.Duration
	// Cluster is the affected cluster for KindOutage and KindAgentCrash.
	Cluster int
	// Router is the governed router for KindRateLimit.
	Router itopo.RouterID
	// Links are the inflated links for KindBrownout.
	Links []itopo.LinkID
	// Drop is the reply fraction shed during a KindRateLimit window.
	Drop float64
	// Delay and Loss are the per-link inflation during a KindBrownout.
	Delay time.Duration
	Loss  float64
}

type span struct{ start, end time.Duration }

func (s span) contains(at time.Duration) bool { return s.start <= at && at < s.end }

type limitSpan struct {
	span
	drop float64
}

type linkSpan struct {
	span
	delay time.Duration
	loss  float64
}

// Plan is an immutable fault schedule. All queries are safe for
// concurrent use.
type Plan struct {
	seed             int64
	persistWindow    time.Duration
	dstFailPersist   float64
	dstFailTransient float64

	events  []Event
	outages map[int][]span
	crashes map[int][]span
	limits  map[itopo.RouterID][]limitSpan
	links   map[itopo.LinkID][]linkSpan
}

// Hash salts: one namespace per draw family, so e.g. the destination
// filter and the limiter never correlate.
const (
	saltDstPersist uint64 = iota + 1
	saltDstTransient
	saltLimiter
	saltLimitSel
	saltGenOutage
	saltGenCrash
	saltGenBrownout
	saltGenLimit
)

// ClusterDown reports whether the cluster is inside an outage window: it
// is unreachable as a destination and silent as a source.
func (p *Plan) ClusterDown(id int, at time.Duration) bool {
	return findSpan(p.outages[id], at)
}

// AgentDown reports whether the cluster's measurement agent is crashed:
// its scheduled measurements never run, but the cluster still answers as
// a destination.
func (p *Plan) AgentDown(id int, at time.Duration) bool {
	return findSpan(p.crashes[id], at)
}

// LinkDelay returns the extra one-way delay browning out the link at at
// (overlapping brownouts stack).
func (p *Plan) LinkDelay(l itopo.LinkID, at time.Duration) time.Duration {
	var d time.Duration
	for _, s := range p.links[l] {
		if s.contains(at) {
			d += s.delay
		}
	}
	return d
}

// LinkLoss returns the extra loss probability browning out the link at at
// (overlapping brownouts stack).
func (p *Plan) LinkLoss(l itopo.LinkID, at time.Duration) float64 {
	var loss float64
	for _, s := range p.links[l] {
		if s.contains(at) {
			loss += s.loss
		}
	}
	return loss
}

// RouterLimited reports whether r is governed by an ICMP rate limiter
// and, if so, whether this probe's reply is shed at at. A governed
// router's limiter replaces its static response probability entirely:
// outside a saturation window the bucket has headroom and every reply
// goes out; inside one, the window's drop fraction is shed. The verdict
// for one salt is stable within a persistence window, so a retry during
// the same saturation episode fails the same way while the next round
// redraws.
func (p *Plan) RouterLimited(r itopo.RouterID, at time.Duration, salt uint64) (limited, drop bool) {
	spans, ok := p.limits[r]
	if !ok {
		return false, false
	}
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > at })
	if i >= len(spans) || !spans[i].contains(at) {
		return true, false
	}
	w := uint64(at / p.persistWindow)
	return true, coin(uint64(p.seed), saltLimiter, uint64(r), salt, w) < spans[i].drop
}

// DstFiltered reports whether the destination persistently ignores this
// pair's probes around at: the draw is quantized to the persistence
// window, so retries cannot recover it but later rounds redraw. This is
// the fault-plan replacement for the prober's static DstFailProb coin.
func (p *Plan) DstFiltered(srcID, dstID int, v6 bool, at time.Duration) bool {
	if p.dstFailPersist <= 0 {
		return false
	}
	w := uint64(at / p.persistWindow)
	return coin(uint64(p.seed), saltDstPersist, pairSalt(srcID, dstID, v6), w) < p.dstFailPersist
}

// DstFlaky reports a transient destination failure at exactly at: a
// retry at a different timestamp redraws, so retries recover these.
func (p *Plan) DstFlaky(srcID, dstID int, v6 bool, at time.Duration) bool {
	if p.dstFailTransient <= 0 {
		return false
	}
	return coin(uint64(p.seed), saltDstTransient, pairSalt(srcID, dstID, v6), uint64(at)) < p.dstFailTransient
}

// Events returns the full schedule, sorted by start time. The slice is
// shared; callers must not mutate it.
func (p *Plan) Events() []Event { return p.events }

// PersistWindow returns the quantum for persistent failure draws.
func (p *Plan) PersistWindow() time.Duration { return p.persistWindow }

// Emit writes one flight event per scheduled fault window, stamped at
// the window's virtual start, so the run's record carries the complete
// fault schedule next to its effects. The events are announcements —
// they describe the future without advancing the recorder's snapshot
// clock, which the campaign's own progress drives.
func (p *Plan) Emit(rec *flight.Recorder) {
	for _, ev := range p.events {
		id := int64(ev.Cluster)
		switch ev.Kind {
		case KindRateLimit:
			id = int64(ev.Router)
		case KindBrownout:
			if len(ev.Links) > 0 {
				id = int64(ev.Links[0])
			}
		}
		rec.Announce(flight.PhFault, ev.Start, flight.Attrs{ID: id, N: int64(ev.Length), S: ev.Kind.String()})
	}
}

// String summarizes the schedule for run logs.
func (p *Plan) String() string {
	counts := map[Kind]int{}
	for _, ev := range p.events {
		counts[ev.Kind]++
	}
	return fmt.Sprintf("%d cluster outages, %d agent crashes, %d brownouts, %d limiter saturations (%d limited routers)",
		counts[KindOutage], counts[KindAgentCrash], counts[KindBrownout], counts[KindRateLimit], len(p.limits))
}

// findSpan reports whether at falls inside any of the sorted,
// non-overlapping spans.
func findSpan(spans []span, at time.Duration) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > at })
	return i < len(spans) && spans[i].contains(at)
}

// pairSalt folds a pair's coordinates into one draw namespace.
func pairSalt(srcID, dstID int, v6 bool) uint64 {
	s := uint64(uint32(srcID))<<33 | uint64(uint32(dstID))<<1
	if v6 {
		s |= 1
	}
	return s
}

// coin draws one uniform [0,1) value keyed by key.
func coin(key ...uint64) float64 {
	rng := detrand.New(detrand.Hash(key...))
	return rng.Float64()
}
