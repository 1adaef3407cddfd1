package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/store"
)

const mb = 1e6

// campaignWorlds and serveWorlds are how many worlds a run builds.
// Campaign cost, allocation and store size differ by as much as a fifth
// from one world to the next, so a run reports figures over several worlds
// derived from its seed (see perWorld and perWorldMean) rather than the
// numbers of one. The campaign
// workload measures the campaigns, so it builds more; the serve workloads
// measure the last world's deployment, and their worlds only give the
// set-up figures. A traced pass builds only the last world, the one
// served, since its spans and counters describe a single set-up and
// campaign.
const (
	campaignWorlds = 8
	serveWorlds    = 3
)

// firstWorld is the first of n worlds a pass builds.
func firstWorld(n int, tr *tracer) int {
	if tr != nil {
		return n - 1
	}
	return 0
}

// worldSeed is the seed of a run's rep-th world: the run's seed itself for
// the first, a splitmix64 hash of the seed and rep cut to 31 bits for the
// others. The layers seed math/rand, which reduces a seed modulo 2³¹−1; an
// offset such as seed + rep·2³² would give run s the worlds of runs s+2,
// s+4, …, so that neighbouring seeds shared most of their worlds.
func worldSeed(seed int64, rep int) int64 {
	if rep == 0 {
		return seed
	}
	z := uint64(seed) + uint64(rep)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 33)
}

// campaignPass: per world a set-up (the world build) and a campaign into a
// fresh store (measured), at workers = nproc; then a workers=1 campaign of
// the first world that must produce the same bytes; then the last world's
// sealed store is served with the cold mix.
func campaignPass(o options, work string, tr *tracer, res *result) error {
	workers := runtime.NumCPU()
	from := firstWorld(campaignWorlds, tr)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	var (
		first                                              ingest
		last                                               *world
		setups, walls, secs, cpus, rps, alloc, peak, sizes []float64
	)
	storeDir := filepath.Join(work, "store")
	for rep := from; rep < campaignWorlds; rep++ {
		runtime.GC() // every set-up starts without the last world's garbage
		t0, c0 := time.Now(), cpuTime()
		w, err := buildWorld(worldSeed(o.seed, rep), tr, reg)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(cpuTime()-c0))
		walls = append(walls, seconds(time.Since(t0)))
		ing, err := runIngest(w, storeDir, workers, tr, reg)
		if err != nil {
			return err
		}
		res.attempted++
		if err := checkIngest(o, storeDir, ing, res); err != nil {
			return err
		}
		if rep == from {
			first = ing
			campaignLayers(res, reg, tr, ing)
		}
		secs = append(secs, seconds(ing.Elapsed))
		cpus = append(cpus, seconds(ing.CPU))
		rps = append(rps, float64(ing.Records)/seconds(ing.Elapsed))
		alloc = append(alloc, float64(ing.mem.allocBytes)/mb)
		peak = append(peak, float64(ing.mem.peakHeap)/mb)
		sizes = append(sizes, float64(ing.StoreBytes)/mb)
		last = w
		flushDirty()
	}
	res.perWorld("setup_s", setups)
	res.perWorld("setup_wall_s", walls)
	res.perWorld("campaign_s", secs)
	res.perWorld("campaign_cpu_s", cpus)
	res.perWorld("records_per_s", rps)
	res.perWorldMean("alloc_mb", alloc)
	res.perWorldMean("peak_heap_mb", peak)
	res.perWorldMean("store_mb", sizes)
	if tr == nil {
		// Byte identity at any worker count: once per invocation.
		w1, err := buildWorld(first.Seed, nil, nil)
		if err != nil {
			return err
		}
		dir := filepath.Join(work, "store-w1")
		seq, err := runIngest(w1, dir, 1, nil, nil)
		if err != nil {
			return err
		}
		res.attempted++
		if err := sameOutput(first, seq); err != nil {
			return checkFailed("workers=%d and workers=1 differ: %v", workers, err)
		}
		res.prov["workers1_check"] = seq.Digest
		os.RemoveAll(dir)
		flushDirty()
	}

	r, err := startRig(last, storeDir, tr)
	if err != nil {
		return err
	}
	defer r.close()
	if err := r.prepare(last, storeDir, o.seed, workers); err != nil {
		return err
	}
	cold := coldStream(o.seed, r.pairs, r.min, r.max, streamLen)
	n := max(int(o.coldRate*fixedShare*o.seconds), fixedWindows*minSamples)
	var sv serveStats
	if err := sv.addFixed(o.coldRate, []fixedRun{r.fixed(cold, 0, n, o.coldRate, workers)}); err != nil {
		return err
	}
	if err := r.loadTests(&sv, cold, n, o.seconds, workers); err != nil {
		return err
	}
	return r.finish(res, sv, tr)
}

// servePass: per world a set-up (world build, campaign into the store,
// deployment start) and a fixed-rate phase on that world's deployment,
// whose answers are checked before the deployment closes; serve_hot first
// fills each cache with the whole key universe. The serve workloads'
// allocation and heap follow the size of the store served, which differs
// by a sixth between worlds, so the fixed-rate load is spread over all the
// worlds of a run. The capacity and slo_rps phases run on the last world.
func servePass(o options, work string, tr *tracer, res *result) (err error) {
	workers := runtime.NumCPU()
	from := firstWorld(serveWorlds, tr)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	rate := o.coldRate
	if o.workload == "serve_hot" {
		rate = o.hotRate
	}
	perWorld := max(int(rate*fixedShare*o.seconds)/serveWorlds, minSamples)
	var (
		setups, walls, secs, cpus, rps, sizes, allocs, peaks []float64
		runs                                                 []fixedRun
		stream                                               []request
		r                                                    *rig
		checked                                              int
	)
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for rep := from; rep < serveWorlds; rep++ {
		if r != nil {
			c, err := r.check(nil)
			if err != nil {
				return checkFailed("world %d: %v", rep-1, err)
			}
			checked += c
			r.close()
			r = nil
		}
		storeDir := filepath.Join(work, fmt.Sprintf("store-%d", rep))
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		w, err := buildWorld(worldSeed(o.seed, rep), tr, reg)
		if err != nil {
			return err
		}
		ing, err := runIngest(w, storeDir, workers, tr, reg)
		if err != nil {
			return err
		}
		if r, err = startRig(w, storeDir, tr); err != nil {
			return err
		}
		setups = append(setups, seconds(cpuTime()-c0))
		walls = append(walls, seconds(time.Since(t0)))
		flushDirty()
		res.attempted++
		if err := checkIngest(o, storeDir, ing, res); err != nil {
			return err
		}
		if rep == from {
			campaignLayers(res, reg, tr, ing)
		}
		secs = append(secs, seconds(ing.Elapsed))
		cpus = append(cpus, seconds(ing.CPU))
		rps = append(rps, float64(ing.Records)/seconds(ing.Elapsed))
		sizes = append(sizes, float64(ing.StoreBytes)/mb)

		if err := r.prepare(w, storeDir, o.seed, workers); err != nil {
			return err
		}
		if o.workload == "serve_hot" {
			stream = hotStream(o.seed, r.pairs, streamLen)
			if err := r.fill(universe(r.pairs), workers); err != nil {
				return err
			}
			r.resetCounts()
		} else {
			stream = coldStream(o.seed, r.pairs, r.min, r.max, streamLen)
		}
		f := r.fixed(stream, rep*perWorld, perWorld, rate, workers)
		runs = append(runs, f)
		allocs = append(allocs, float64(f.mem.allocBytes)/mb)
		peaks = append(peaks, float64(f.mem.peakHeap)/mb)
	}
	res.perWorld("setup_s", setups)
	res.perWorld("setup_wall_s", walls)
	res.perWorld("campaign_s", secs)
	res.perWorld("campaign_cpu_s", cpus)
	res.perWorld("records_per_s", rps)
	res.perWorldMean("store_mb", sizes)
	res.perWorldMean("alloc_mb", allocs)
	res.perWorldMean("peak_heap_mb", peaks)
	res.prov["answers_checked_other_worlds"] = checked

	var sv serveStats
	if err := sv.addFixed(rate, runs); err != nil {
		return err
	}
	if err := r.loadTests(&sv, stream, serveWorlds*perWorld, o.seconds, workers); err != nil {
		return err
	}
	return r.finish(res, sv, tr)
}

// flushDirty writes the stores just written out to disk, between timed
// phases. Left to the kernel, the write-back starts about 30 seconds
// later, in the middle of whatever phase is then being measured.
func flushDirty() { syscall.Sync() }

// checkIngest verifies one world's sealed store, records its provenance,
// and compares its output with every earlier run of that world by the
// same binary, recorded in the ledger under the output directory. The
// last world's store digest is the run's, which a traced pass must
// reproduce.
func checkIngest(o options, storeDir string, ing ingest, res *result) error {
	if err := verifyStore(storeDir, ing.Records); err != nil {
		return checkFailed("%v", err)
	}
	res.digest = ing.Digest
	worlds, _ := res.prov["worlds"].([]ingest)
	res.prov["worlds"] = append(worlds, ing)
	res.prov["campaign_workers"] = ing.Workers
	return checkLedger(filepath.Join(o.dir, "ledger.json"), o.build, ing)
}

// checkLedger compares an ingest with the first one the same build
// recorded for its world, and records it when it is the first. Entries
// are keyed by build as well as by world seed: a build of other code may
// lay out the store or the record stream differently, and its runs are
// not repeats of this one.
func checkLedger(path, build string, ing ingest) error {
	type entry struct {
		Records    int64  `json:"records"`
		Digest     string `json:"store_digest"`
		Findings   int64  `json:"findings"`
		FindDigest string `json:"findings_digest"`
	}
	ledger := make(map[string]entry)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ledger); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
	}
	key := fmt.Sprintf("%s/%d", build, ing.Seed)
	got := entry{ing.Records, ing.Digest, ing.Findings, ing.FindDigest}
	if want, ok := ledger[key]; ok {
		if want != got {
			return checkFailed("world seed %d: this run %+v, an earlier run of this build %+v", ing.Seed, got, want)
		}
		return nil
	}
	ledger[key] = got
	return writeJSON(path, ledger)
}

// fill sends every request once from workers clients, untimed.
func (r *rig) fill(reqs []request, workers int) error {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				if !r.send(-1, reqs[i]) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("cache fill: %d of %d requests failed", n, len(reqs))
	}
	return nil
}

// serveStats is what the measured serve phases produced.
type serveStats struct {
	fixed     phaseStats
	reqCPU    time.Duration // process CPU time per request of the fixed phases
	capacity  float64
	slo       float64
	rungs     []rung
	attempted int
	failed    int
	mem       memDelta // of the last world's fixed phase
}

// fixedShare is the share of the seconds the fixed-rate phases take, and
// fixedWindows the least number of p99 windows they collect on the
// campaign workload's one world. A serve world's phase and a rung of the
// slo_rps search collect at least one.
const (
	fixedShare   = 0.6
	fixedWindows = 3
)

// fixedRun is one fixed-rate open-loop phase: its outcomes, and the
// allocation, heap and CPU time of the process over it.
type fixedRun struct {
	out []outcome
	mem memDelta
	cpu time.Duration
}

// fixed offers n requests of stream, from request first on, at the fixed
// rate. The stream repeats after its end, which keeps the hot mix's key
// distribution; the cold stream is far longer than a run uses.
func (r *rig) fixed(stream []request, first, n int, rate float64, workers int) fixedRun {
	mon := startMemMonitor(nil)
	cpu0 := cpuTime()
	out := openLoop(rate, n, workers, func(i int) bool {
		return r.send(int64(first+i), stream[(first+i)%len(stream)])
	})
	cpu := cpuTime() - cpu0
	mem, _ := mon.stop()
	return fixedRun{out: out, mem: mem, cpu: cpu}
}

// addFixed summarizes the fixed-rate phases of a pass, in order: their
// latencies, requests and failures, and their CPU time per request
// (req_cpu_ms).
func (sv *serveStats) addFixed(rate float64, runs []fixedRun) error {
	var out []outcome
	var cpu time.Duration
	for _, f := range runs {
		out = append(out, f.out...)
		cpu += f.cpu
	}
	st, err := summarize(rate, out)
	if err != nil {
		return err
	}
	sv.fixed, sv.reqCPU, sv.mem = st, cpu/time.Duration(len(out)), runs[len(runs)-1].mem
	sv.attempted += len(out)
	sv.failed += st.Failed
	return nil
}

// loadTests runs, after the fixed-rate phases, the closed-loop capacity
// (20% of the seconds, at least 3s) and the slo_rps step-down, whose rungs
// run 1s and at least minSamples requests each. Requests continue from
// request next of the stream.
func (r *rig) loadTests(sv *serveStats, stream []request, next int, secs float64, workers int) error {
	send := func(i int) bool { return r.send(int64(i), stream[i%len(stream)]) }
	capDur := time.Duration(max(3, 0.2*secs) * float64(time.Second))
	var att, fail int
	sv.capacity, att, fail = closedLoop(capDur, next, workers, send)
	next += att
	sv.attempted += att
	sv.failed += fail

	var err error
	sv.slo, sv.rungs, err = findSLO(sv.capacity, func(rate float64) (phaseStats, error) {
		n := max(int(rate), minSamples)
		base := next
		next += n
		out := openLoop(rate, n, workers, func(i int) bool { return send(base + i) })
		sv.attempted += n
		st, err := summarize(rate, out)
		sv.failed += st.Failed
		return st, err
	})
	return err
}

// finish records the serve metrics, runs the output checks, and in a
// traced pass reads the serve-side layer metrics.
func (r *rig) finish(res *result, sv serveStats, tr *tracer) error {
	res.e2e["req_cpu_ms"] = millis(sv.reqCPU)
	res.e2e["p50_ms"] = sv.fixed.P50ms
	res.e2e["p99_ms"] = sv.fixed.P99ms
	res.e2e["capacity_rps"] = sv.capacity
	res.e2e["slo_rps"] = sv.slo
	res.attempted += sv.attempted
	res.failed += sv.failed
	res.prov["fixed_phase"] = sv.fixed
	res.prov["slo_rungs"] = sv.rungs
	res.prov["serve_attempted"] = sv.attempted
	res.prov["serve_failed"] = sv.failed
	res.prov["timeline_keys"] = len(r.pairs)
	if v, _ := r.dep.VS.View(); r.dep.Replica(v.Primary) != nil {
		res.prov["cache_entries"] = r.dep.Replica(v.Primary).Cache().Len()
	}

	var lt *layerTimes
	if tr != nil {
		lt = &layerTimes{}
	}
	checked, err := r.check(lt)
	res.prov["answers_checked"] = checked
	res.prov["answers_checked_by_endpoint"] = r.ans.kept
	res.prov["distinct_keys"] = len(r.ans.digests)
	pairHit := float64(r.ans.hits[0]) / float64(max(r.ans.total[0], 1))
	res.prov["cache_hit_ratio_pair_endpoints"] = pairHit
	if err != nil {
		return checkFailed("%v", err)
	}
	if sv.failed > 0 {
		return checkFailed("%d of %d serve requests failed or were refused", sv.failed, sv.attempted)
	}
	if tr != nil {
		r.serveLayers(res, sv, lt)
	}
	return nil
}

// campaignLayers reads the counters the campaign-side layers export and
// the spans around the benchmark's calls into them.
func campaignLayers(res *result, reg *obs.Registry, tr *tracer, ing ingest) {
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	hist := func(name string) obs.HistogramSnapshot { return s.Histograms[name] }
	spans := spanTotals(tr.snapshot())
	for _, b := range []string{"astopo.generate", "itopo.build", "bgp.dynamics", "congestion.model", "cdn.deploy", "simnet.new"} {
		res.layer(b+"_s", "s", seconds(spans[b]))
	}
	res.layer("bgp.trees_computed", "count", float64(s.Counters[bgp.MetricTreesComputed]))
	res.layer("bgp.trees_carried", "count", float64(s.Counters[bgp.MetricTreesCarried]))
	res.layer("bgp.epoch_build_s", "s", hist(bgp.MetricEpochBuildSeconds).Sum)
	res.layer("bgp.tree_compute_s", "s", hist(bgp.MetricTreeSeconds).Sum)
	hits, misses := s.SumFamily(simnet.MetricCacheHits), s.SumFamily(simnet.MetricCacheMisses)
	res.layer("simnet.path_cache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	res.layer("simnet.path_cache_evictions", "count", float64(s.SumFamily(simnet.MetricCacheEvictions)))
	res.layer("probe.traceroutes", "count", float64(s.Counters[probe.MetricTraceroutes]))
	hops := hist(probe.MetricHops)
	res.layer("probe.hops_per_traceroute", "count", hops.Sum/float64(max(hops.Count, 1)))
	busy := float64(s.SumFamily(campaign.MetricWorkerBusyNS)) / 1e9
	res.layer("campaign.worker_busy_s", "s", busy)
	res.layer("campaign.worker_busy_share", "ratio", busy/(float64(ing.Workers)*seconds(ing.Elapsed)))
	res.layer("campaign.reorder_depth_max", "count", ing.reorderMax)
	res.layer("store.write_s", "s", seconds(spans["store.write"]))
	res.layer("store.close_s", "s", seconds(spans["store.close"]))
	res.layer("store.bytes_written", "bytes", float64(s.Counters[store.MetricBytesWritten]))
	res.layer("store.shards_written", "count", float64(s.Counters[store.MetricShardsWritten]))
	res.layer("analysis.observe_s", "s", seconds(spans["analysis.observe"]))
	res.layer("analysis.findings", "count", float64(ing.Findings))
	res.layer("analysis.windows", "count", float64(s.SumFamily(analysis.MetricWindows)))
	if res.workload == "campaign" {
		res.layer("runtime.gc_cycles", "count", float64(ing.mem.gcCycles))
		res.layer("runtime.gc_pause_ms", "ms", millis(ing.mem.gcPause))
	}
}

// selfTimeLayers are the layers the benchmark's spans cover, reported
// with their self time (span time not covered by child spans).
var selfTimeLayers = []string{"astopo", "itopo", "bgp", "congestion", "cdn", "simnet", "campaign", "ipam", "store", "analysis", "serve", "client", "replica"}

// countFamilies are the service and store counters read for the
// per-layer metrics, summed over replicas.
var countFamilies = []string{
	serve.MetricCacheHits, serve.MetricCacheMisses, serve.MetricCacheEvictions,
	serve.MetricShed, serve.MetricForwards,
	store.MetricBytesRead, store.MetricShardsScanned, store.MetricFramesFiltered,
}

// counts sums countFamilies over the replicas' registries and their store
// registries, minus the baseline taken by resetCounts.
func (r *rig) counts() map[string]int64 {
	out := make(map[string]int64)
	r.regMu.Lock()
	regs := append([]*obs.Registry(nil), r.storeRegs...)
	r.regMu.Unlock()
	for _, reg := range r.dep.Registries {
		regs = append(regs, reg)
	}
	for _, reg := range regs {
		s := reg.Snapshot()
		for _, f := range countFamilies {
			out[f] += s.SumFamily(f)
		}
	}
	for f, v := range r.base {
		out[f] -= v
	}
	return out
}

// resetCounts makes the counters and the client-side hit tally start from
// here, so the cache fill does not count as measured traffic.
func (r *rig) resetCounts() {
	r.base = nil
	r.base = r.counts()
	r.ans.mu.Lock()
	r.ans.hits, r.ans.total = [2]int64{}, [2]int64{}
	r.ans.mu.Unlock()
	r.ct.mu.Lock()
	r.ct.rtMs = nil
	r.ct.mu.Unlock()
	r.ct.views.Store(0)
	if r.rpc != nil {
		r.rpc.mu.Lock()
		r.rpc.fwdMs, r.rpc.fwdBytes, r.rpc.pings = nil, 0, 0
		r.rpc.mu.Unlock()
	}
}

// serveLayers reads the replicas' registries, the store read counters,
// the timing transports, and the reference-backend timings.
func (r *rig) serveLayers(res *result, sv serveStats, lt *layerTimes) {
	c := r.counts()
	hits, misses := c[serve.MetricCacheHits], c[serve.MetricCacheMisses]
	perMiss := func(n int64) float64 { return float64(n) / float64(max(misses, 1)) }
	res.layer("serve.cache_hit_ratio", "ratio", res.prov["cache_hit_ratio_pair_endpoints"].(float64))
	res.layer("serve.cache_hit_ratio_all", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	res.layer("serve.cache_misses", "count", float64(misses))
	res.layer("serve.cache_evictions", "count", float64(c[serve.MetricCacheEvictions]))
	res.layer("serve.shed", "count", float64(c[serve.MetricShed]))
	res.layer("store.bytes_read_per_miss", "bytes", perMiss(c[store.MetricBytesRead]))
	res.layer("store.bytes_read", "bytes", float64(c[store.MetricBytesRead]))
	res.layer("store.shards_scanned_per_miss", "count", perMiss(c[store.MetricShardsScanned]))
	res.layer("store.frames_filtered_per_miss", "count", perMiss(c[store.MetricFramesFiltered]))
	res.layer("store.pair_read_ms", "ms", median(lt.pairReadMs))
	res.layer("backend.query_ms", "ms", median(lt.queryMs))
	res.layer("backend.encode_digest_ms", "ms", median(lt.encodeMs))

	r.rpc.mu.Lock()
	fwd := append([]float64(nil), r.rpc.fwdMs...)
	res.layer("replica.forwards", "count", float64(c[serve.MetricForwards]))
	res.layer("replica.forward_kb", "KB", float64(r.rpc.fwdBytes)/1e3/float64(max(len(fwd), 1)))
	res.layer("replica.pings", "count", float64(r.rpc.pings))
	r.rpc.mu.Unlock()
	p50, _ := quantile(fwd, 0.5)
	p99, _ := quantile(fwd, 0.99)
	res.layer("replica.forward_ms_p50", "ms", p50)
	res.layer("replica.forward_ms_p99", "ms", p99)
	if v, _ := r.dep.VS.View(); r.dep.Replica(v.Primary) != nil {
		res.layer("serve.journal_entries", "count", float64(len(r.dep.Replica(v.Primary).Journal())))
	}

	rt := r.ct.roundTrips()
	p50, _ = quantile(rt, 0.5)
	p99, _ = quantile(rt, 0.99)
	res.layer("client.roundtrip_ms_p50", "ms", p50)
	res.layer("client.roundtrip_ms_p99", "ms", p99)
	retries, _ := r.client.Stats()
	res.layer("client.retries", "count", float64(retries))
	res.layer("client.view_lookups", "count", float64(r.ct.views.Load()))
	res.layer("client.refusals", "count", float64(r.ct.refusals.Load()))

	res.layer("loadgen.queue_ms_p99", "ms", sv.fixed.QueueP99)
	res.layer("loadgen.late_ratio", "ratio", sv.fixed.LateRatio)
	if res.workload != "campaign" {
		res.layer("runtime.gc_cycles", "count", float64(sv.mem.gcCycles))
		res.layer("runtime.gc_pause_ms", "ms", millis(sv.mem.gcPause))
	}
	self := layerSelfTimes(r.tr.snapshot())
	for _, l := range selfTimeLayers {
		res.layer("selftime."+l+"_s", "s", seconds(self[l]))
	}
}
