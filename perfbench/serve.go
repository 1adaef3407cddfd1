package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// Serve-side constants: the deployment shape (primary plus backup, a
// 4096-entry hot-pair cache each), the zipf skew of the hot mix, and the
// per-request deadline after which a request counts as failed.
const (
	cacheEntries = 4096
	replicas     = 2
	zipfS        = 1.2
	reqTimeout   = 2 * time.Second
	streamLen    = 1 << 16
	hotEpoch     = 1000
)

// request is one query of a load stream. Its URL parameters and cache key
// are derived when it is sent, so a long stream stays small.
type request struct {
	endpoint string
	q        serve.PairQuery
}

func pairEndpoint(ep string) bool { return ep == "series" || ep == "paths" || ep == "summary" }

func newRequest(ep string, q serve.PairQuery) request {
	if !pairEndpoint(ep) {
		q = serve.PairQuery{}
	}
	return request{endpoint: ep, q: q}
}

// key is the service's canonical cache and journal key of the request.
func (r request) key() string { return r.q.CanonicalKey(r.endpoint) }

// values renders the request's URL parameters; a negative To (the
// default window's open end) is left out.
func (r request) values() url.Values {
	v := url.Values{}
	if !pairEndpoint(r.endpoint) {
		return v
	}
	v.Set("src", strconv.Itoa(r.q.Src))
	v.Set("dst", strconv.Itoa(r.q.Dst))
	if r.q.V6 {
		v.Set("v6", "true")
	}
	if r.q.From != 0 {
		v.Set("from", strconv.FormatInt(int64(r.q.From), 10))
	}
	if r.q.To >= 0 {
		v.Set("to", strconv.FormatInt(int64(r.q.To), 10))
	}
	if r.q.Step != 0 {
		v.Set("step", strconv.FormatInt(int64(r.q.Step), 10))
	}
	return v
}

// hotStream is the console mix over popularity-ranked pairs with the
// default window: serve.Schedule's zipfian pairs and 60/25/8/5/2
// series/paths/meta/pairs/summary split. The popularity ranking is a
// seeded shuffle of the pairs, drawn afresh every hotEpoch requests. The
// head of the mix takes most requests (the top key about a fifth), so
// under one ranking the sizes of a few answers would set a run's
// allocation, which then moved by an eighth between seeds; over a dozen
// rankings a run's figures no longer hang on a few answers.
func hotStream(seed int64, pairs []trace.PairKey, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	ranked := append([]trace.PairKey(nil), pairs...)
	out := make([]request, 0, n)
	for epoch := 0; len(out) < n; epoch++ {
		rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
		for _, q := range serve.Schedule(seed, epoch, ranked, min(hotEpoch, n-len(out)), zipfS) {
			out = append(out, newRequest(q.Endpoint, serve.PairQuery{Src: q.Pair.SrcID, Dst: q.Pair.DstID, V6: q.Pair.V6, To: -1}))
		}
	}
	return out
}

// coldStream is the same endpoint mix over uniform pairs, each query with
// an in-span from/to/step of its own, so canonical keys never repeat. The
// draws are stratified so that every run, whatever its seed, offers work
// of the same size: each block of 100 requests holds the exact endpoint
// mix, the pairs are dealt from a fresh seeded permutation of all pairs
// every len(pairs) requests, and the window's start, length and step come
// from a three-dimensional low-discrepancy sequence (R3, Roberts 2018)
// started at a seeded point, which spreads them evenly over their ranges. Narrow windows, and those
// that hold no complete traceroute, are drawn like any other.
func coldStream(seed int64, pairs []trace.PairKey, min, max time.Duration, n int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_c01d))
	u := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	var pairOrder, rolls []int
	out := make([]request, n)
	for i := range out {
		if i%len(pairs) == 0 {
			pairOrder = rng.Perm(len(pairs))
		}
		if i%100 == 0 {
			rolls = rng.Perm(100)
		}
		for d := range u {
			u[d] = math.Mod(u[d]+r3[d], 1)
		}
		p := pairs[pairOrder[i%len(pairs)]]
		from := min + time.Duration(u[0]*float64(max-min))
		to := from + 1 + time.Duration(u[1]*float64(max-from))
		step := roundInterval + time.Duration(u[2]*float64(24*time.Hour))
		q := serve.PairQuery{Src: p.SrcID, Dst: p.DstID, V6: p.V6, From: from, To: to, Step: step}
		out[i] = newRequest(consoleEndpoint(rolls[i%100]), q)
	}
	return out
}

// r3 is the step of the R3 sequence: 1/φ, 1/φ², 1/φ³ for φ the real root
// of x⁴ = x + 1.
var r3 = [3]float64{0.8191725133961645, 0.6710436067037893, 0.5497004779019703}

// consoleEndpoint maps a roll in [0,100) to the console's endpoint mix,
// the split serve.Schedule uses.
func consoleEndpoint(roll int) string {
	switch {
	case roll < 60:
		return "series"
	case roll < 85:
		return "paths"
	case roll < 93:
		return "meta"
	case roll < 98:
		return "pairs"
	default:
		return "summary"
	}
}

// universe is every key the hot mix can produce: three pair endpoints per
// timeline key plus meta and pairs.
func universe(pairs []trace.PairKey) []request {
	var out []request
	for _, p := range pairs {
		for _, ep := range []string{"series", "paths", "summary"} {
			out = append(out, newRequest(ep, serve.PairQuery{Src: p.SrcID, Dst: p.DstID, V6: p.V6, To: -1}))
		}
	}
	return append(out, newRequest("meta", serve.PairQuery{}), newRequest("pairs", serve.PairQuery{}))
}

// rig is a running deployment over one sealed store plus everything the
// load generator and the output checks need.
type rig struct {
	dep    *serve.Deployment
	ref    *serve.Backend
	client *serve.Client
	ct     *clientTransport
	rpc    *rpcStats
	tr     *tracer
	pairs  []trace.PairKey
	min    time.Duration
	max    time.Duration
	oracle map[trace.PairKey][]time.Duration

	regMu     sync.Mutex
	storeRegs []*obs.Registry
	base      map[string]int64

	ans *answers
}

// startRig starts the replicated deployment over the store at dir. With a
// tracer the replicas' outbound RPCs go through the timing transport.
func startRig(w *world, dir string, tr *tracer) (*rig, error) {
	r := &rig{tr: tr}
	openBackend := func() (*serve.Backend, error) {
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		st.Instrument(reg)
		r.regMu.Lock()
		r.storeRegs = append(r.storeRegs, reg)
		r.regMu.Unlock()
		return serve.NewBackend(st, w.mapper, serve.BackendConfig{Interval: roundInterval}), nil
	}
	cfg := serve.DeployConfig{Replicas: replicas, OpenBackend: openBackend, CacheEntries: cacheEntries}
	if tr != nil {
		r.rpc = &rpcStats{tr: tr}
		cfg.Transport = func(string) http.RoundTripper { return &rpcTransport{base: http.DefaultTransport, s: r.rpc} }
	}
	err := tr.timed("serve.start_deployment", 0, func() (err error) {
		r.dep, err = serve.StartDeployment(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// prepare opens the reference backend (its own, uninstrumented store
// handle), builds the answer oracle from a full store scan, and wires the
// client: at most nproc connections, one shared view-aware client.
func (r *rig) prepare(w *world, dir string, seed int64, workers int) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	r.ref = serve.NewBackend(st, w.mapper, serve.BackendConfig{Interval: roundInterval})
	r.pairs, _ = st.PairKeys()
	r.min, r.max = st.Manifest().Span()
	if len(r.pairs) == 0 || r.max <= r.min {
		return fmt.Errorf("store at %s has no pairs", dir)
	}
	r.oracle = make(map[trace.PairKey][]time.Duration, len(r.pairs))
	var mu sync.Mutex
	err = st.Scan(workers, funcs{tr: func(t *trace.Traceroute) {
		if t.Complete {
			mu.Lock()
			r.oracle[t.Key()] = append(r.oracle[t.Key()], t.At)
			mu.Unlock()
		}
	}})
	if err != nil {
		return err
	}
	r.ct = &clientTransport{base: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		MaxIdleConns:        4 * workers,
	}, tr: r.tr}
	r.client = &serve.Client{VS: r.dep.VSURL, HC: &http.Client{Transport: r.ct}, Timeout: reqTimeout, Seed: seed}
	r.ans = newAnswers()
	return nil
}

// close stops the deployment and the client's idle connections.
func (r *rig) close() {
	if r.ct != nil {
		r.ct.base.(*http.Transport).CloseIdleConnections()
	}
	r.dep.Close()
}

// send sends one request. It succeeds only when the service acknowledged
// it without ever refusing it (503) and before the deadline.
func (r *rig) send(id int64, req request) bool {
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	st := &reqState{id: id, span: r.tr.begin("serve.request", 0, id)}
	ctx = context.WithValue(ctx, reqKey{}, st)
	resp, err := r.client.GetCtx(ctx, "/api/"+req.endpoint, req.values())
	r.tr.end(st.span)
	if err != nil {
		return false
	}
	r.ans.note(req, resp)
	return !st.refused.Load()
}

// answers collects every acknowledged digest, the bodies of a seeded
// sample of keys, and cache hits by endpoint class.
type answers struct {
	mu           sync.Mutex
	digests      map[string]string
	bodies       map[string][]byte
	reqs         map[string]request
	kept         map[string]int // sampled keys held, by endpoint
	contradicted []string
	hits, total  [2]int64 // [0] pair endpoints, [1] meta and pairs
}

// sampleMod makes one key in sampleMod a sampled key.
const sampleMod = 8

// perEndpointChecked bounds how many sampled keys of each endpoint are
// held and recomputed on the reference backend per run. A quota per
// endpoint, rather than one over all keys, keeps the rare endpoints
// (summary is 2% of the mix) in the check on workloads whose keys never
// repeat.
const perEndpointChecked = 100

func newAnswers() *answers {
	return &answers{
		digests: make(map[string]string),
		bodies:  make(map[string][]byte),
		reqs:    make(map[string]request),
		kept:    make(map[string]int),
	}
}

func sampled(key string) bool {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()%sampleMod == 0
}

func (a *answers) note(req request, resp *serve.Response) {
	key := req.key()
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.digests[key]; ok && prev != resp.Digest {
		a.contradicted = append(a.contradicted, fmt.Sprintf("%s: %s then %s", key, prev, resp.Digest))
	} else if !ok {
		a.digests[key] = resp.Digest
		if (!pairEndpoint(req.endpoint) || sampled(key)) && a.kept[req.endpoint] < perEndpointChecked {
			a.kept[req.endpoint]++
			a.bodies[key] = resp.Body
			a.reqs[key] = req
		}
	}
	class := 0
	if !pairEndpoint(req.endpoint) {
		class = 1
	}
	a.total[class]++
	if resp.CacheHit {
		a.hits[class]++
	}
}

// checkedKeys is the held keys in the order check recomputes them.
func (a *answers) checkedKeys() []string {
	keys := make([]string, 0, len(a.bodies))
	for k := range a.bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// check is the output check of a serve phase: no acknowledged digest was
// ever contradicted, and for the sampled keys every digest matches its
// body and a clean reference Backend.Answer, and every series answer
// holds exactly the complete traceroutes the store has in its window. A
// phase that held no series answer fails, since it checked none.
func (r *rig) check(lt *layerTimes) (int, error) {
	a := r.ans
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.contradicted) > 0 {
		return 0, fmt.Errorf("%d acknowledged digests contradicted, first %s", len(a.contradicted), a.contradicted[0])
	}
	if a.kept["series"] == 0 {
		return 0, fmt.Errorf("no series answer was sampled among %d distinct keys", len(a.digests))
	}
	keys := a.checkedKeys()
	ctx := context.Background()
	for _, k := range keys {
		req, body := a.reqs[k], a.bodies[k]
		if serve.Digest(body) != a.digests[k] {
			return 0, fmt.Errorf("%s: X-S2S-Digest %s does not match its body (%s)", k, a.digests[k], serve.Digest(body))
		}
		t0 := time.Now()
		_, want, err := r.ref.Answer(ctx, req.endpoint, req.q)
		if err != nil {
			return 0, fmt.Errorf("%s: reference answer: %w", k, err)
		}
		lt.answer(req, time.Since(t0), r.ref)
		if want != a.digests[k] {
			return 0, fmt.Errorf("%s: served digest %s, reference Backend.Answer %s", k, a.digests[k], want)
		}
		if req.endpoint == "series" {
			if err := r.checkSeries(req, body); err != nil {
				return 0, err
			}
		}
	}
	return len(keys), nil
}

// checkSeries compares a series answer with the complete traceroutes the
// store scan found in the query's window.
func (r *rig) checkSeries(req request, body []byte) error {
	var resp serve.SeriesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %w", req.key(), err)
	}
	want := 0
	for _, at := range r.oracle[req.q.Key()] {
		if at >= req.q.From && (req.q.To < 0 || at < req.q.To) {
			want++
		}
	}
	if resp.Samples != want || (want > 0 && len(resp.Points) == 0) {
		return fmt.Errorf("%s: series holds %d samples in %d points, the store holds %d complete traceroutes in the window",
			req.key(), resp.Samples, len(resp.Points), want)
	}
	return nil
}

// funcs adapts a closure to store.Consumer.
type funcs struct{ tr func(*trace.Traceroute) }

func (f funcs) OnTraceroute(t *trace.Traceroute) { f.tr(t) }
func (f funcs) OnPing(*trace.Ping)               {}
