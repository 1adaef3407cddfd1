// Package simnet is the virtual network the measurement tools probe: it
// composes the router-level topology (itopo), time-varying BGP routing
// (bgp.Dynamics), the congestion model, and a deterministic noise model
// into path- and RTT-oracles addressed by cluster pairs and virtual time.
//
// Determinism: every stochastic quantity (jitter, spikes, losses) is drawn
// from a PRNG seeded by a hash of (seed, src, dst, time, family, kind), so
// a measurement's outcome is a pure function of its coordinates — identical
// campaigns produce identical datasets regardless of execution order.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/cdn"
	"repro/internal/congestion"
	"repro/internal/detrand"
	"repro/internal/faults"
	"repro/internal/intern"
	"repro/internal/ipam"
	"repro/internal/itopo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// ErrUnreachable is returned when no route exists between the endpoints at
// the measurement time (e.g. a partition, or IPv6 between v4-only hosts).
var ErrUnreachable = errors.New("simnet: destination unreachable")

// maxCachedPaths is the default bound on the per-family resolved-path
// cache (entries across all shards).
const maxCachedPaths = 1 << 16

// pathCacheShards is the number of independently locked cache shards per
// family. Workers hash onto shards by key, so concurrent probers contend
// only when they resolve paths that land on the same shard.
const pathCacheShards = 32

// Config tunes the measurement-visible noise floor.
type Config struct {
	Seed int64

	// MaxCachedPaths overrides the resolved-path cache bound per family
	// (0 selects the maxCachedPaths default). Mostly a test hook.
	MaxCachedPaths int

	// ServerLinkDelay is the one-way delay between a measurement server
	// and its attachment router.
	ServerLinkDelay time.Duration

	// HopJitter is the per-hop jitter scale (half-normal).
	HopJitter time.Duration

	// SpikeProb and SpikeMean shape the occasional large RTT spikes the
	// paper calls "a typical feature of repeated measurements".
	SpikeProb float64
	SpikeMean time.Duration

	// LossProb is the baseline ping-loss probability. CongestionLossPerMs
	// adds loss proportional to the congestion queueing delay on the path
	// (full buffers drop packets), so loss correlates with the §5.1
	// diurnal pattern.
	LossProb            float64
	CongestionLossPerMs float64
}

// DefaultConfig returns the standard noise parameters.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		ServerLinkDelay:     250 * time.Microsecond,
		HopJitter:           120 * time.Microsecond,
		SpikeProb:           0.012,
		SpikeMean:           30 * time.Millisecond,
		LossProb:            0.004,
		CongestionLossPerMs: 0.0006,
	}
}

// Net is the virtual network.
type Net struct {
	R    *itopo.Network
	Dyn  *bgp.Dynamics
	Cong *congestion.Model
	cfg  Config

	// Resolved-path cache, sharded by key hash so concurrent probers
	// rarely contend. Keys carry the BGP epoch ("epoch-keyed
	// generations"): a round that straddles an epoch boundary keeps both
	// generations warm instead of thrashing a shared clear-on-advance
	// cache, and stale generations are evicted shard-by-shard as the
	// per-shard bound is reached.
	shards   [2][pathCacheShards]pathShard
	shardMax int

	// Per-family hop-sequence interners, epoch-keyed like the path cache:
	// distinct cache entries (and concurrent resolutions) that resolve to
	// the same router path share one canonical slab-backed slice. Two
	// generations stay warm so a round straddling an epoch boundary keeps
	// deduplicating on both sides.
	hopSeqs [2]hopInterner

	// Fault schedule; nil (the default) leaves the network fault-free and
	// the measurement byte-stream identical to the pre-fault behavior.
	faults *faults.Plan

	// Counts route lookups that failed because an endpoint cluster was
	// inside a scheduled outage window; nil until Instrument.
	mFaultUnreach *obs.Counter

	// Flight recorder; nil until Trace.
	rec *flight.Recorder
}

type pathShard struct {
	mu sync.Mutex
	m  map[pathKey][]itopo.PathHop

	// epoch is the newest BGP epoch this shard has seen. When it
	// advances, entries more than one epoch old are swept eagerly: they
	// can never be hit again (lookups key on the current epoch; only the
	// previous one stays reachable while a round straddles the boundary),
	// and while present they pin their interner generation's slab blocks.
	epoch int

	// Per-shard cache telemetry; nil (one predicted branch per lookup)
	// until Instrument attaches a registry.
	hits, misses, stale, evictions *obs.Counter
}

// pathKey names one resolved path. The AS path is not part of it: it is a
// function of the attach routers' ASes, the epoch and the family (the
// cache is per family).
type pathKey struct {
	src, dst itopo.RouterID
	flow     uint64
	epoch    int
}

// shardIndex spreads keys across shards; flow is already hash-mixed, so a
// simple combine suffices.
func (k pathKey) shardIndex() int {
	h := k.flow ^ uint64(k.src)<<32 ^ uint64(k.dst) ^ uint64(k.epoch)<<16
	h *= 1099511628211
	return int((h >> 32) % pathCacheShards)
}

// New assembles a virtual network. cong may be nil for a congestion-free
// network.
func New(r *itopo.Network, dyn *bgp.Dynamics, cong *congestion.Model, cfg Config) *Net {
	n := &Net{R: r, Dyn: dyn, Cong: cong, cfg: cfg}
	bound := cfg.MaxCachedPaths
	if bound <= 0 {
		bound = maxCachedPaths
	}
	n.shardMax = bound / pathCacheShards
	if n.shardMax < 1 {
		n.shardMax = 1
	}
	return n
}

// Config returns the noise configuration.
func (n *Net) Config() Config { return n.cfg }

// Metric family names exported by Instrument. Each carries family ("v4" or
// "v6") and shard labels; sum over the series for platform totals.
const (
	MetricCacheHits      = "s2s_simnet_path_cache_hits_total"
	MetricCacheMisses    = "s2s_simnet_path_cache_misses_total"
	MetricCacheStale     = "s2s_simnet_path_cache_stale_drops_total"
	MetricCacheEvictions = "s2s_simnet_path_cache_evictions_total"
)

// MetricFaultUnreachable counts route lookups refused because an endpoint
// cluster was inside a scheduled outage window (no family/shard labels).
const MetricFaultUnreachable = "s2s_simnet_fault_unreachable_total"

// SetFaults attaches a fault schedule: route lookups fail with
// ErrUnreachable while either endpoint cluster is inside an outage
// window, and browned-out links add delay (via CongestionDelay) and loss
// (via FaultLoss) to paths crossing them. Call before probing starts; a
// nil plan (the default) keeps the network byte-identical to the
// fault-free behavior.
func (n *Net) SetFaults(p *faults.Plan) { n.faults = p }

// Faults returns the attached fault schedule (nil when fault-free).
func (n *Net) Faults() *faults.Plan { return n.faults }

// Instrument registers the resolved-path cache's per-shard counters in
// reg. Call it before probing starts; a nil registry leaves the network
// uninstrumented (the default, zero-overhead state). Metrics never feed
// back into measurement outcomes, so instrumented runs emit byte-identical
// datasets.
func (n *Net) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.mFaultUnreach = reg.Counter(MetricFaultUnreachable, "route lookups refused by a scheduled cluster outage")
	for fi, fam := range [2]string{"v4", "v6"} {
		for si := range n.shards[fi] {
			sh := &n.shards[fi][si]
			label := fmt.Sprintf(`{family=%q,shard="%d"}`, fam, si)
			sh.hits = reg.Counter(MetricCacheHits+label, "resolved-path cache hits")
			sh.misses = reg.Counter(MetricCacheMisses+label, "resolved-path cache misses (paths resolved)")
			sh.stale = reg.Counter(MetricCacheStale+label, "cache entries dropped for belonging to an old BGP epoch")
			sh.evictions = reg.Counter(MetricCacheEvictions+label, "cache entries dropped by a full-shard reset")
		}
	}
}

// Trace attaches a flight recorder: every cache-generation sweep (stale
// drops at a shard bound, or a full shard reset) becomes an event carrying
// the shard index, drop counts, and family. A nil recorder is a no-op.
// Call before probing starts.
func (n *Net) Trace(rec *flight.Recorder) { n.rec = rec }

// plane maps a family flag onto the BGP plane.
func plane(v6 bool) bgp.Plane {
	if v6 {
		return bgp.V6
	}
	return bgp.V4
}

// ASPath returns the AS-level route between the clusters' host ASes at
// time t, or nil when unreachable.
func (n *Net) ASPath(src, dst *cdn.Cluster, v6 bool, t time.Duration) []ipam.ASN {
	if v6 && (!src.DualStack() || !dst.DualStack()) {
		return nil
	}
	return n.Dyn.RoutingAt(t, plane(v6)).Path(src.HostAS, dst.HostAS)
}

// ForwardHops resolves the router-level path from src's attachment router
// to dst's at time t for the given flow. The first hop is src's attachment
// router with zero cumulative delay.
func (n *Net) ForwardHops(src, dst *cdn.Cluster, v6 bool, flowID uint64, t time.Duration) ([]itopo.PathHop, error) {
	if n.faults != nil && (n.faults.ClusterDown(src.ID, t) || n.faults.ClusterDown(dst.ID, t)) {
		n.mFaultUnreach.Inc()
		return nil, ErrUnreachable
	}
	asPath := n.ASPath(src, dst, v6, t)
	if asPath == nil {
		return nil, ErrUnreachable
	}
	return n.resolveCached(src.Attach, dst.Attach, asPath, v6, flowID, t)
}

// ForwardHopsScratch resolves like ForwardHops but bypasses the path
// cache and the hop interner, appending into buf (whose capacity is
// reused). It exists for one-shot flows: classic traceroute derives a
// fresh flow per TTL and per measurement, so a cache entry for it can
// never be hit again and an interned copy would sit in the slab for the
// rest of the epoch. The returned slice is backed by buf (when it fits)
// and owned by the caller — unlike ForwardHops results it is neither
// shared nor retained by the network.
func (n *Net) ForwardHopsScratch(buf []itopo.PathHop, src, dst *cdn.Cluster, v6 bool, flowID uint64, t time.Duration) ([]itopo.PathHop, error) {
	if n.faults != nil && (n.faults.ClusterDown(src.ID, t) || n.faults.ClusterDown(dst.ID, t)) {
		n.mFaultUnreach.Inc()
		return buf, ErrUnreachable
	}
	asPath := n.ASPath(src, dst, v6, t)
	if asPath == nil {
		return buf, ErrUnreachable
	}
	return n.R.AppendPath(buf[:0], src.Attach, dst.Attach, asPath, v6, flowID)
}

func (n *Net) resolveCached(sr, dr itopo.RouterID, asPath []ipam.ASN, v6 bool, flowID uint64, t time.Duration) ([]itopo.PathHop, error) {
	fi := 0
	if v6 {
		fi = 1
	}
	epoch := n.Dyn.EpochAt(t)
	key := pathKey{sr, dr, flowID, epoch}
	sh := &n.shards[fi][key.shardIndex()]
	sh.mu.Lock()
	if hops, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		sh.hits.Inc()
		return hops, nil
	}
	sh.mu.Unlock()
	sh.misses.Inc()
	// Resolve into pooled scratch: the interner copies the sequence into
	// its slab (or an unshared copy), so the resolve buffer never escapes
	// and the growth churn of cold resolves is paid once per pool entry.
	bufp := hopScratch.Get().(*[]itopo.PathHop)
	scratch, err := n.R.AppendPath((*bufp)[:0], sr, dr, asPath, v6, flowID)
	if cap(scratch) > cap(*bufp) {
		*bufp = scratch
	}
	if err != nil {
		hopScratch.Put(bufp)
		return nil, err
	}
	hops := n.hopSeqs[fi].intern(epoch, scratch)
	hopScratch.Put(bufp)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[pathKey][]itopo.PathHop)
	}
	if epoch > sh.epoch {
		sh.epoch = epoch
		swept := 0
		for k := range sh.m {
			if k.epoch < epoch-1 {
				delete(sh.m, k)
				swept++
			}
		}
		sh.stale.Add(int64(swept))
	}
	// One-shot flows (callers that derive a fresh flow per probe and do
	// not use ForwardHopsScratch) never repeat, so the cache is bounded
	// to keep long campaigns from accumulating entries. Entries from
	// other epochs go first (the clock has usually moved on); if the
	// shard is still full, it is reset.
	if len(sh.m) >= n.shardMax {
		before := len(sh.m)
		for k := range sh.m {
			if k.epoch != epoch {
				delete(sh.m, k)
			}
		}
		stale := before - len(sh.m)
		sh.stale.Add(int64(stale))
		evicted := 0
		if len(sh.m) >= n.shardMax {
			evicted = len(sh.m)
			sh.evictions.Add(int64(evicted))
			sh.m = make(map[pathKey][]itopo.PathHop)
		}
		if n.rec != nil {
			fam := "v4"
			if v6 {
				fam = "v6"
			}
			n.rec.Event(flight.PhCacheSweep, t, flight.Attrs{
				ID: int64(key.shardIndex()),
				N:  int64(stale),
				M:  int64(evicted),
				S:  fam,
			})
		}
	}
	sh.m[key] = hops
	sh.mu.Unlock()
	return hops, nil
}

// hopScratch pools the per-resolve path buffer; interned sequences are
// copied out of it before it is reused.
var hopScratch = sync.Pool{New: func() any {
	b := make([]itopo.PathHop, 0, 64)
	return &b
}}

// hopInterner is a per-family pair of epoch-keyed hop-sequence interners.
// Interned slices are shared across cache entries and callers: they must
// be treated as immutable (every consumer of ForwardHops already is
// read-only — mutating resolved hops would break cache correctness even
// without interning).
type hopInterner struct {
	mu   sync.Mutex
	gens [2]struct {
		epoch int
		seq   *intern.Seq[itopo.PathHop]
	}
}

func hashPathHop(h itopo.PathHop) uint64 {
	x := uint64(uint32(h.Router)) | uint64(uint32(h.InLink))<<32
	x ^= uint64(h.Cum) * 0x9e3779b97f4a7c15
	x *= 0xff51afd7ed558ccd
	return x ^ x>>33
}

// intern returns the canonical slice for hops within the given BGP epoch,
// rotating out the older generation when a third epoch appears.
func (hi *hopInterner) intern(epoch int, hops []itopo.PathHop) []itopo.PathHop {
	hi.mu.Lock()
	var seq *intern.Seq[itopo.PathHop]
	for i := range hi.gens {
		if hi.gens[i].seq != nil && hi.gens[i].epoch == epoch {
			seq = hi.gens[i].seq
		}
	}
	if seq == nil {
		// Replace the older (or empty) generation.
		oldest := 0
		for i := range hi.gens {
			if hi.gens[i].seq == nil {
				oldest = i
				break
			}
			if hi.gens[i].epoch < hi.gens[oldest].epoch {
				oldest = i
			}
		}
		seq = intern.NewSeq[itopo.PathHop](8, hashPathHop)
		hi.gens[oldest].epoch = epoch
		hi.gens[oldest].seq = seq
	}
	hi.mu.Unlock()
	canon, _ := seq.Intern(hops)
	return canon
}

// cachedPaths reports the resolved-path cache population for one family
// (test hook for the bound).
func (n *Net) cachedPaths(v6 bool) int {
	fi := 0
	if v6 {
		fi = 1
	}
	total := 0
	for i := range n.shards[fi] {
		sh := &n.shards[fi][i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

// OneWayDelay returns the propagation delay of the resolved path plus the
// congestion queueing delay active on its links at time t.
func (n *Net) OneWayDelay(hops []itopo.PathHop, t time.Duration) time.Duration {
	if len(hops) == 0 {
		return 0
	}
	d := hops[len(hops)-1].Cum
	d += n.CongestionDelay(hops, len(hops)-1, t)
	return d
}

// CongestionDelay sums the congestion queueing delay — plus any brownout
// delay from the fault schedule — on the inbound links of hops[1..upto]
// at time t.
func (n *Net) CongestionDelay(hops []itopo.PathHop, upto int, t time.Duration) time.Duration {
	if n.Cong == nil && n.faults == nil {
		return 0
	}
	var d time.Duration
	for i := 1; i <= upto && i < len(hops); i++ {
		if hops[i].InLink >= 0 {
			if n.Cong != nil {
				d += n.Cong.DelayOn(hops[i].InLink, t)
			}
			if n.faults != nil {
				d += n.faults.LinkDelay(hops[i].InLink, t)
			}
		}
	}
	return d
}

// FaultLoss sums the brownout loss probability on the inbound links of
// hops[1..upto] at time t. Zero when no fault schedule is attached.
func (n *Net) FaultLoss(hops []itopo.PathHop, upto int, t time.Duration) float64 {
	if n.faults == nil {
		return 0
	}
	var loss float64
	for i := 1; i <= upto && i < len(hops); i++ {
		if hops[i].InLink >= 0 {
			loss += n.faults.LinkLoss(hops[i].InLink, t)
		}
	}
	return loss
}

// BaseRTT returns the noise-free round-trip time between two clusters at
// time t: forward path (flow flowF) out, independent reverse path (flow
// flowR) back, plus the server attachment links. Paths may be asymmetric —
// the reverse direction is routed from dst's side.
func (n *Net) BaseRTT(src, dst *cdn.Cluster, v6 bool, flowF, flowR uint64, t time.Duration) (time.Duration, error) {
	fwd, err := n.ForwardHops(src, dst, v6, flowF, t)
	if err != nil {
		return 0, err
	}
	rev, err := n.ForwardHops(dst, src, v6, flowR, t)
	if err != nil {
		return 0, err
	}
	return n.OneWayDelay(fwd, t) + n.OneWayDelay(rev, t) + 4*n.cfg.ServerLinkDelay, nil
}

// MeasurementKind salts the per-measurement PRNG so that, e.g., a ping and
// a traceroute at the same coordinates see different noise.
type MeasurementKind uint8

// Measurement kinds.
const (
	KindPing MeasurementKind = iota
	KindTraceroute
)

// Rand returns the deterministic generator for one measurement, keyed by
// (seed, kind, src, dst, family, time). The generator is a value: it needs
// no release and seeding it allocates nothing.
func (n *Net) Rand(kind MeasurementKind, srcID, dstID int, v6 bool, at time.Duration) detrand.Rand {
	return detrand.New(detrand.Hash(uint64(n.cfg.Seed), uint64(kind),
		uint64(srcID), uint64(dstID), Family(v6), uint64(at)))
}

// Family is a measurement's address-family key word.
func Family(v6 bool) uint64 {
	if v6 {
		return 6
	}
	return 4
}

// Noise draws the additive measurement noise for a path of the given hop
// count: per-hop half-normal jitter plus an occasional exponential spike.
func (n *Net) Noise(rng *detrand.Rand, hopCount int) time.Duration {
	var d time.Duration
	for i := 0; i < hopCount; i++ {
		d += time.Duration(math.Abs(rng.NormFloat64()) * float64(n.cfg.HopJitter))
	}
	if rng.Float64() < n.cfg.SpikeProb {
		d += time.Duration(rng.ExpFloat64() * float64(n.cfg.SpikeMean))
	}
	return d
}

// LostFaulted reports a drop given the congestion queueing delay and an
// additional fault-induced loss probability (brownouts, from FaultLoss)
// on the path. It consumes exactly one rng draw.
func (n *Net) LostFaulted(rng *detrand.Rand, congestion time.Duration, extraLoss float64) bool {
	p := n.cfg.LossProb + n.cfg.CongestionLossPerMs*float64(congestion)/float64(time.Millisecond) + extraLoss
	return rng.Float64() < p
}
