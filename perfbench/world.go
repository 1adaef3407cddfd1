package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/astopo"
	"repro/internal/bgp"
	"repro/internal/campaign"
	"repro/internal/cdn"
	"repro/internal/congestion"
	"repro/internal/core/aspath"
	"repro/internal/ipam"
	"repro/internal/itopo"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
)

// The campaign world: the fixed BENCH_006 workload (600 ASes, 1600
// clusters, a 24-server mesh, 5 virtual days of 3-hour rounds, IPv4
// switching to Paris traceroute at 62% of the run). Only the seed varies.
const (
	worldASes     = 600
	worldClusters = 1600
	worldMesh     = 24
	worldDays     = 5
	roundInterval = 3 * time.Hour
	parisShare    = 0.62
)

func campaignDuration() time.Duration { return worldDays * 24 * time.Hour }

// world is everything a campaign and the query service need, built from
// one seed.
type world struct {
	seed    int64
	topo    *astopo.Topology
	net     *itopo.Network
	dyn     *bgp.Dynamics
	sim     *simnet.Net
	prober  *probe.Prober
	servers []*cdn.Cluster
	mapper  *aspath.Mapper
}

// buildWorld runs every set-up step, each inside its own span. With a
// registry the simulation layers export their counters into it.
func buildWorld(seed int64, tr *tracer, reg *obs.Registry) (*world, error) {
	w := &world{seed: seed}
	dur := campaignDuration()
	var (
		cong *congestion.Model
		plat *cdn.Platform
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"astopo.generate", func() (err error) {
			cfg := astopo.DefaultConfig(seed)
			cfg.NumASes = worldASes
			w.topo, err = astopo.Generate(cfg)
			return err
		}},
		{"itopo.build", func() (err error) {
			w.net, err = itopo.Build(w.topo, itopo.DefaultConfig(seed))
			return err
		}},
		{"bgp.dynamics", func() (err error) {
			w.dyn, err = bgp.NewDynamics(w.topo, bgp.DefaultDynConfig(seed, dur))
			return err
		}},
		{"congestion.model", func() (err error) {
			cong, err = congestion.NewModel(w.net, congestion.DefaultConfig(seed, dur))
			return err
		}},
		{"cdn.deploy", func() (err error) {
			plat, err = cdn.Deploy(w.net, cdn.DefaultConfig(seed, worldClusters))
			return err
		}},
		{"simnet.new", func() error {
			w.sim = simnet.New(w.net, w.dyn, cong, simnet.DefaultConfig(seed))
			w.prober = probe.New(w.sim)
			return nil
		}},
		{"campaign.select_mesh", func() error {
			w.servers = campaign.SelectMesh(plat, worldMesh, seed)
			return nil
		}},
		{"ipam.table", func() error {
			table := ipam.NewTable()
			for _, e := range w.net.BGPEntries() {
				if err := table.Insert(e.Prefix, e.Origin); err != nil {
					return err
				}
			}
			w.mapper = aspath.NewMapper(table)
			return nil
		}},
	}
	for _, s := range steps {
		if err := tr.timed(s.name, 0, s.f); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if reg != nil {
		w.sim.Instrument(reg)
		w.dyn.Instrument(reg)
		w.prober.Instrument(reg)
	}
	return w, nil
}

// ingest is the outcome of one campaign into a sealed store.
type ingest struct {
	Seed       int64         `json:"world_seed"`
	Records    int64         `json:"records"`
	Pairs      int           `json:"pairs"`
	Digest     string        `json:"store_digest"`
	StoreBytes int64         `json:"store_bytes"`
	Findings   int64         `json:"findings"`
	FindDigest string        `json:"findings_digest"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	CPU        time.Duration `json:"cpu_ns"`
	Workers    int           `json:"workers"`
	mem        memDelta
	reorderMax float64
}

// timedWriter times every write into the store. The WriteSink around it
// still streams, so the engine recycles records exactly as without it.
type timedWriter struct {
	w      campaign.RecordWriter
	tr     *tracer
	parent int64
}

func (t *timedWriter) WriteTraceroute(r *trace.Traceroute) error {
	id := t.tr.begin("store.write", t.parent, -1)
	err := t.w.WriteTraceroute(r)
	t.tr.end(id)
	return err
}

func (t *timedWriter) WritePing(p *trace.Ping) error {
	id := t.tr.begin("store.write", t.parent, -1)
	err := t.w.WritePing(p)
	t.tr.end(id)
	return err
}

// timedStage times every record the analysis stage observes and passes
// the stage's streaming promise through unchanged.
type timedStage struct {
	s      *analysis.Stage
	tr     *tracer
	parent int64
}

func (t *timedStage) OnTraceroute(r *trace.Traceroute) {
	id := t.tr.begin("analysis.observe", t.parent, -1)
	t.s.OnTraceroute(r)
	t.tr.end(id)
}

func (t *timedStage) OnPing(p *trace.Ping) {
	id := t.tr.begin("analysis.observe", t.parent, -1)
	t.s.OnPing(p)
	t.tr.end(id)
}

func (t *timedStage) StreamsRecords() bool { return t.s.StreamsRecords() }

// streamsAll reports whether every member of the fan-out promises not to
// retain records, the condition under which the engine recycles them.
func streamsAll(m campaign.Multi) bool {
	for _, c := range m {
		s, ok := c.(campaign.RecordStreamer)
		if !ok || !s.StreamsRecords() {
			return false
		}
	}
	return len(m) > 0
}

// runIngest runs the campaign at the given worker count into a fresh
// store at dir, with the analysis stage tapped on the stream the way
// `s2sgen -store -analyze` does it. Elapsed runs from the first round to
// Writer.Close.
func runIngest(w *world, dir string, workers int, tr *tracer, reg *obs.Registry) (ingest, error) {
	if err := os.RemoveAll(dir); err != nil {
		return ingest{}, err
	}
	sw, err := store.Create(dir, store.Options{Tool: "perfbench", Seed: w.seed, TopoDigest: w.topo.Digest()})
	if err != nil {
		return ingest{}, err
	}
	sw.Instrument(reg)
	fh := sha256.New()
	stage := analysis.NewStage(analysis.Config{
		Mapper:   w.mapper,
		Interval: roundInterval,
		Sink:     func(f analysis.Finding) { io.WriteString(fh, f.String()+"\n") },
	}, reg, nil)

	runID := tr.begin("campaign.run", 0, -1)
	var writer campaign.RecordWriter = sw
	var observer campaign.Consumer = stage
	if tr != nil {
		writer = &timedWriter{w: sw, tr: tr, parent: runID}
		observer = &timedStage{s: stage, tr: tr, parent: runID}
	}
	sink := campaign.NewWriteSink(writer)
	fan := campaign.Multi{sink, observer}
	if !streamsAll(fan) {
		return ingest{}, fmt.Errorf("campaign consumers stopped streaming; records would no longer be recycled")
	}
	var reorder *obs.Gauge
	if reg != nil {
		reorder = reg.Gauge(campaign.MetricReorderDepth, "")
	}
	dur := campaignDuration()
	mon := startMemMonitor(reorder)
	start, cpu0 := time.Now(), cpuTime()
	err = campaign.LongTerm(w.prober, campaign.LongTermConfig{
		Servers:       w.servers,
		Duration:      dur,
		Interval:      roundInterval,
		ParisSwitchAt: time.Duration(float64(dur) * parisShare),
		Workers:       workers,
		Metrics:       reg,
	}, fan)
	if err == nil {
		err = sink.Err()
	}
	tr.end(runID)
	if err != nil {
		sw.Close()
		mon.stop()
		return ingest{}, fmt.Errorf("campaign: %w", err)
	}
	if err := tr.timed("store.close", 0, sw.Close); err != nil {
		mon.stop()
		return ingest{}, fmt.Errorf("store close: %w", err)
	}
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	mem, reorderMax := mon.stop()
	stage.Finish()

	out := ingest{
		Seed:       w.seed,
		Records:    sink.Count(),
		Findings:   stage.Total(),
		FindDigest: hex.EncodeToString(fh.Sum(nil))[:16],
		Elapsed:    elapsed,
		CPU:        cpu,
		Workers:    campaign.NormalizeWorkers(workers),
		mem:        mem,
		reorderMax: reorderMax,
	}
	if out.Digest, out.StoreBytes, err = dirDigest(dir); err != nil {
		return ingest{}, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return ingest{}, err
	}
	keys, _ := st.PairKeys()
	out.Pairs = len(keys)
	return out, nil
}

// sameOutput reports a mismatch between two ingests of the same seed.
func sameOutput(a, b ingest) error {
	if a.Records != b.Records || a.Digest != b.Digest || a.Findings != b.Findings || a.FindDigest != b.FindDigest {
		return fmt.Errorf("workers=%d: %d records, store %s, %d findings %s; workers=%d: %d records, store %s, %d findings %s",
			a.Workers, a.Records, a.Digest, a.Findings, a.FindDigest,
			b.Workers, b.Records, b.Digest, b.Findings, b.FindDigest)
	}
	return nil
}

// verifyStore runs the store's own fsck and requires it clean.
func verifyStore(dir string, records int64) error {
	rep, err := store.Verify(dir)
	if err != nil {
		return err
	}
	if !rep.OK() || rep.Orphans != 0 || rep.Records != records {
		return fmt.Errorf("store verify: %s (campaign delivered %d records)", rep, records)
	}
	return nil
}

// dirDigest hashes every file of a store directory (name and bytes, in
// name order) and sums their sizes.
func dirDigest(dir string) (string, int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	var size int64
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			return "", 0, err
		}
		io.WriteString(h, n+"\n")
		c, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", 0, err
		}
		size += c
	}
	return hex.EncodeToString(h.Sum(nil))[:16], size, nil
}

// memDelta is the allocation and heap picture of one measured phase.
type memDelta struct {
	allocBytes uint64
	peakHeap   uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// memMonitor samples the heap goal (and optionally a gauge) every 10ms
// while a phase runs. The heap goal is the heap size at which the
// collector starts its next cycle, the high-water mark the heap climbs to
// between collections. A sample of the heap itself lands anywhere between
// the live heap and that mark, so its maximum over a phase depended on
// where the samples fell and moved by a tenth between runs of one seed.
// The samples come from runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world, so sampling adds no
// pauses to the phase it watches.
type memMonitor struct {
	before runtime.MemStats
	done   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	peak   uint64
	gmax   float64
}

// heapGoal is the runtime/metrics name of the collector's heap goal.
const heapGoal = "/gc/heap/goal:bytes"

func startMemMonitor(g *obs.Gauge) *memMonitor {
	runtime.GC()
	m := &memMonitor{done: make(chan struct{})}
	runtime.ReadMemStats(&m.before)
	m.peak = m.before.NextGC
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		heap := []metrics.Sample{{Name: heapGoal}}
		for {
			select {
			case <-m.done:
				return
			case <-tick.C:
				metrics.Read(heap)
				m.mu.Lock()
				m.peak = max(m.peak, heap[0].Value.Uint64())
				if g != nil {
					m.gmax = max(m.gmax, g.Value())
				}
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// stop ends sampling and returns the phase's memory delta and the
// largest gauge value seen.
func (m *memMonitor) stop() (memDelta, float64) {
	close(m.done)
	m.wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocBytes: after.TotalAlloc - m.before.TotalAlloc,
		peakHeap:   max(m.peak, after.NextGC),
		gcCycles:   after.NumGC - m.before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - m.before.PauseTotalNs),
	}, m.gmax
}
