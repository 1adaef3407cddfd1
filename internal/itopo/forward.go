package itopo

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/ipam"
)

// PathHop is one router on a resolved forwarding path.
type PathHop struct {
	Router RouterID
	// InLink is the link the packet arrived on (-1 at the source router).
	// The address a traceroute observes at this hop is the router's
	// interface on InLink.
	InLink LinkID
	// Cum is the cumulative one-way propagation delay from the source.
	Cum time.Duration
}

// sptKey caches shortest-path trees per (target router, family).
type sptKey struct {
	target RouterID
	v6     bool
}

// spt is a shortest-path tree toward a target within one AS's internal
// graph. next[r] lists the equal-cost links out of r toward the target;
// more than one entry means ECMP, resolved per flow.
type spt struct {
	dist map[RouterID]time.Duration
	next map[RouterID][]LinkID
}

var errNoRoute = fmt.Errorf("itopo: no internal route")

// sptTo computes (or returns cached) the intra-AS shortest-path tree toward
// target over the internal links of target's owner.
func (n *Network) sptTo(target RouterID, v6 bool) *spt {
	key := sptKey{target, v6}
	n.sptMu.RLock()
	t, ok := n.sptCache[key]
	n.sptMu.RUnlock()
	if ok {
		return t
	}
	t = n.computeSPT(target, v6)
	n.sptMu.Lock()
	if n.sptCache == nil {
		n.sptCache = make(map[sptKey]*spt)
	}
	n.sptCache[key] = t
	n.sptMu.Unlock()
	return t
}

func (n *Network) computeSPT(target RouterID, v6 bool) *spt {
	owner := n.Routers[target].Owner
	t := &spt{
		dist: make(map[RouterID]time.Duration),
		next: make(map[RouterID][]LinkID),
	}
	t.dist[target] = 0
	// Dijkstra with linear extraction: per-AS graphs are small.
	settled := make(map[RouterID]bool)
	for {
		// Extract the unsettled router with the smallest distance.
		var cur RouterID = -1
		var best time.Duration
		for r, d := range t.dist {
			if settled[r] {
				continue
			}
			if cur < 0 || d < best || (d == best && r < cur) {
				cur, best = r, d
			}
		}
		if cur < 0 {
			break
		}
		settled[cur] = true
		for _, lid := range n.adj[cur] {
			l := n.Links[lid]
			if l.Kind != Internal {
				continue
			}
			if v6 && !l.V6 {
				continue
			}
			o := l.Other(cur)
			if n.Routers[o].Owner != owner {
				continue // defensive; internal links never cross ASes
			}
			nd := best + l.Delay
			if d, ok := t.dist[o]; !ok || nd < d {
				t.dist[o] = nd
				t.next[o] = []LinkID{lid}
			} else if nd == d {
				t.next[o] = append(t.next[o], lid)
			}
		}
	}
	return t
}

// walkIntraAS appends the hops from cur to target inside one AS, choosing
// among equal-cost links by flow hash. It returns the final cumulative
// delay.
func (n *Network) walkIntraAS(hops *[]PathHop, cur RouterID, target RouterID, v6 bool, flowID uint64, cum time.Duration) (RouterID, time.Duration, error) {
	if cur == target {
		return cur, cum, nil
	}
	t := n.sptTo(target, v6)
	if _, ok := t.dist[cur]; !ok {
		return cur, cum, errNoRoute
	}
	for cur != target {
		links := t.next[cur]
		if len(links) == 0 {
			return cur, cum, errNoRoute
		}
		lid := links[0]
		if len(links) > 1 {
			lid = links[int(detrand.Hash(flowID, uint64(cur))%uint64(len(links)))]
		}
		l := n.Links[lid]
		cur = l.Other(cur)
		cum += l.Delay
		*hops = append(*hops, PathHop{Router: cur, InLink: lid, Cum: cum})
	}
	return cur, cum, nil
}

// ResolvePath expands an AS-level path into the router-level forwarding
// path from src to dst. The flowID feeds ECMP decisions: a fixed flowID
// (Paris traceroute, ping) yields a stable path; varying it per probe
// (classic traceroute) exposes load-balanced alternatives.
//
// Egress selection is hot-potato: within each AS the packet exits at the
// physical interconnect closest (by internal delay) to where it entered.
func (n *Network) ResolvePath(src, dst RouterID, asPath []ipam.ASN, v6 bool, flowID uint64) ([]PathHop, error) {
	hops, err := n.AppendPath(nil, src, dst, asPath, v6, flowID)
	if err != nil {
		return nil, err
	}
	return hops, nil
}

// AppendPath is ResolvePath appending into buf, reusing its capacity —
// the resolve loop's scratch allocation was the hottest in the simulator.
// It always returns the (possibly regrown) slice so a pooling caller can
// recover the capacity even on error; the contents are meaningful only
// when err is nil.
func (n *Network) AppendPath(buf []PathHop, src, dst RouterID, asPath []ipam.ASN, v6 bool, flowID uint64) ([]PathHop, error) {
	if len(asPath) == 0 {
		return buf, fmt.Errorf("itopo: empty AS path")
	}
	if n.Routers[src].Owner != asPath[0] {
		return buf, fmt.Errorf("itopo: src router owned by %v, path starts at %v", n.Routers[src].Owner, asPath[0])
	}
	if n.Routers[dst].Owner != asPath[len(asPath)-1] {
		return buf, fmt.Errorf("itopo: dst router owned by %v, path ends at %v", n.Routers[dst].Owner, asPath[len(asPath)-1])
	}
	hops := append(buf, PathHop{Router: src, InLink: -1, Cum: 0})
	cur := src
	var cum time.Duration
	var err error
	for i := 0; i+1 < len(asPath); i++ {
		from, to := asPath[i], asPath[i+1]
		lid, nearSide, ok := n.chooseEgress(cur, from, to, v6)
		if !ok {
			return hops, fmt.Errorf("itopo: no %s interconnect %v→%v", fam(v6), from, to)
		}
		cur, cum, err = n.walkIntraAS(&hops, cur, nearSide, v6, flowID, cum)
		if err != nil {
			return hops, fmt.Errorf("itopo: within %v: %w", from, err)
		}
		l := n.Links[lid]
		far := l.Other(nearSide)
		cum += l.Delay
		hops = append(hops, PathHop{Router: far, InLink: lid, Cum: cum})
		cur = far
	}
	if _, cum, err = n.walkIntraAS(&hops, cur, dst, v6, flowID, cum); err != nil {
		return hops, fmt.Errorf("itopo: within %v: %w", asPath[len(asPath)-1], err)
	}
	_ = cum
	return hops, nil
}

// chooseEgress picks the hot-potato interconnect from AS `from` to AS `to`
// given the current ingress router.
func (n *Network) chooseEgress(cur RouterID, from, to ipam.ASN, v6 bool) (LinkID, RouterID, bool) {
	cands := n.xconnects[pairKey(from, to)]
	bestLid := LinkID(-1)
	var bestSide RouterID
	var bestDist time.Duration
	for _, lid := range cands {
		l := n.Links[lid]
		if v6 && !l.V6 {
			continue
		}
		near := l.A
		if n.Routers[near].Owner != from {
			near = l.B
		}
		if n.Routers[near].Owner != from {
			continue // defensive
		}
		d, ok := n.sptTo(near, v6).dist[cur]
		if !ok {
			continue
		}
		if bestLid < 0 || d < bestDist || (d == bestDist && lid < bestLid) {
			bestLid, bestSide, bestDist = lid, near, d
		}
	}
	if bestLid < 0 {
		return 0, 0, false
	}
	return bestLid, bestSide, true
}

func fam(v6 bool) string {
	if v6 {
		return "v6"
	}
	return "v4"
}

// sptMu guards sptCache; both live on Network but are declared here to keep
// the forwarding machinery together.
type sptState struct {
	sptMu    sync.RWMutex
	sptCache map[sptKey]*spt
}
