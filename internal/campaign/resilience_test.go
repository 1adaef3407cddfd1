package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cdn"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/trace"
)

// attachStandardPlan generates the standard fault plan for the prober's
// world and wires it into the simnet and the prober, mirroring what
// s2sgen -faults standard does.
func attachStandardPlan(t testing.TB, p *probe.Prober, plat *cdn.Platform, seed int64, days int) *faults.Plan {
	t.Helper()
	dur := time.Duration(days) * 24 * time.Hour
	net := p.Net.R
	plan, err := faults.Generate(faults.Standard(seed, dur, len(plat.Clusters), len(net.Routers), len(net.Links)))
	if err != nil {
		t.Fatal(err)
	}
	p.Net.SetFaults(plan)
	p.Faults = plan
	return plan
}

// TestFaultedCampaignBitIdentical: with a fault plan, retries, and
// quarantine all armed, the record stream must still be byte-identical
// across worker counts.
func TestFaultedCampaignBitIdentical(t *testing.T) {
	_, platform := newProber(t, 41, 3, 60)
	servers := SelectMesh(platform, 5, 41)
	pairs := UnorderedPairs(servers)
	run := func(p *probe.Prober, w int, c Consumer) error {
		plan := attachStandardPlan(t, p, platform, 41, 3)
		return TracerouteCampaign(p, TracerouteCampaignConfig{
			Pairs:          pairs,
			Duration:       6 * time.Hour,
			Interval:       30 * time.Minute,
			BothDirections: true,
			V6:             true,
			Workers:        w,
			Resilience: Resilience{
				Faults:          plan,
				Retry:           RetryPolicy{MaxAttempts: 3},
				QuarantineAfter: 3,
			},
		}, c)
	}
	seq, par := runTwice(t, 41, run, 8)
	if len(seq) == 0 {
		t.Fatal("empty stream")
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("faulted parallel stream differs from sequential (%d vs %d bytes)", len(par), len(seq))
	}
}

// TestRetryRecoversTransient: a measurement that fails its first attempt
// and succeeds on retry delivers the retry's record, stamped at the
// backed-off virtual time.
func TestRetryRecoversTransient(t *testing.T) {
	p, platform := newProber(t, 42, 1, 40)
	e := NewEngine(p, 1)
	defer e.Close()
	e.SetResilience(Resilience{Retry: RetryPolicy{MaxAttempts: 3}})
	reg := obs.NewRegistry()
	e.Instrument(reg)

	var calls []time.Duration
	e.testExec = func(tk measurement, at time.Duration) (result, bool) {
		calls = append(calls, at)
		res := failedResult(tk, at)
		if len(calls) >= 2 {
			res.pg.Lost = false
		}
		return res, true
	}
	var col Collector
	task := measurement{src: platform.Clusters[0], dst: platform.Clusters[1], ping: true}
	e.RunRound([]measurement{task}, time.Hour, &col)

	if len(calls) != 2 {
		t.Fatalf("attempts = %d, want 2", len(calls))
	}
	if calls[0] != time.Hour || calls[1] != time.Hour+DefaultBackoff {
		t.Fatalf("attempt times = %v, want [1h, 1h+%v]", calls, DefaultBackoff)
	}
	if len(col.Pings) != 1 || col.Pings[0].Lost || col.Pings[0].At != time.Hour+DefaultBackoff {
		t.Fatalf("delivered record wrong: %+v", col.Pings)
	}
	if got := reg.Counter(MetricRetriesAttempted, "").Value(); got != 1 {
		t.Errorf("retries attempted = %d, want 1", got)
	}
	if got := reg.Counter(MetricRetriesSucceeded, "").Value(); got != 1 {
		t.Errorf("retries succeeded = %d, want 1", got)
	}
}

// TestQuarantineLifecycle: consecutive failures quarantine a pair, the
// quarantined pair is skipped off-cadence and re-probed on cadence, and a
// successful re-probe releases it.
func TestQuarantineLifecycle(t *testing.T) {
	p, platform := newProber(t, 43, 1, 40)
	e := NewEngine(p, 1)
	defer e.Close()
	e.SetResilience(Resilience{QuarantineAfter: 2, ReprobeEvery: 4})
	reg := obs.NewRegistry()
	e.Instrument(reg)

	healthy := true
	execs := 0
	e.testExec = func(tk measurement, at time.Duration) (result, bool) {
		execs++
		res := failedResult(tk, at)
		res.pg.Lost = !healthy
		return res, true
	}
	task := measurement{src: platform.Clusters[0], dst: platform.Clusters[1], ping: true}
	round := func() int {
		before := execs
		var col Collector
		e.RunRound([]measurement{task}, time.Duration(e.roundIdx)*time.Minute, &col)
		return execs - before
	}

	// Rounds 1-2 fail: the pair quarantines at the threshold.
	healthy = false
	round()
	round()
	if got := reg.Gauge(MetricQuarantinedPairs, "").Value(); got != 1 {
		t.Fatalf("quarantined pairs = %v, want 1", got)
	}
	// Rounds 3-5 are off-cadence: the pair is skipped, no probe runs.
	for r := 3; r <= 5; r++ {
		if n := round(); n != 0 {
			t.Fatalf("round %d executed %d probes, want 0 (quarantined)", r, n)
		}
	}
	// Round 6 is the re-probe cadence ((6-2)%4 == 0); it fails, so the
	// cadence restarts from round 6.
	if n := round(); n != 1 {
		t.Fatalf("re-probe round executed %d probes, want 1", n)
	}
	for r := 7; r <= 9; r++ {
		if n := round(); n != 0 {
			t.Fatalf("round %d executed %d probes, want 0 (cadence restarted)", r, n)
		}
	}
	// Round 10 re-probes again; this one succeeds and releases the pair.
	healthy = true
	if n := round(); n != 1 {
		t.Fatalf("second re-probe executed %d probes, want 1", n)
	}
	if got := reg.Gauge(MetricQuarantinedPairs, "").Value(); got != 0 {
		t.Fatalf("quarantined pairs after release = %v, want 0", got)
	}
	if n := round(); n != 1 {
		t.Fatalf("released pair not probed (%d probes)", n)
	}
	if reg.Counter(MetricQuarantineSkips, "").Value() == 0 {
		t.Error("quarantine skips counter never moved")
	}
	if reg.Counter(MetricQuarantineAdds, "").Value() != 1 {
		t.Error("quarantine adds counter != 1")
	}
}

// TestWatchdogAbandonsWedgedRound: a wedged task must not hang the
// campaign — the watchdog abandons the round, the wedged slot books a
// degraded failure record, and the engine survives to run later rounds.
func TestWatchdogAbandonsWedgedRound(t *testing.T) {
	p, platform := newProber(t, 44, 1, 40)
	e := NewEngine(p, 4)
	defer e.Close()
	e.SetResilience(Resilience{Watchdog: 100 * time.Millisecond})
	reg := obs.NewRegistry()
	e.Instrument(reg)

	wedge := make(chan struct{})
	defer close(wedge)
	wedged := platform.Clusters[2]
	e.testExec = func(tk measurement, at time.Duration) (result, bool) {
		if tk.dst == wedged {
			<-wedge // blocks until the test ends
		}
		res := failedResult(tk, at)
		res.pg.Lost = false
		return res, true
	}
	tasks := []measurement{
		{src: platform.Clusters[0], dst: platform.Clusters[1], ping: true},
		{src: platform.Clusters[0], dst: wedged, ping: true},
		{src: platform.Clusters[0], dst: platform.Clusters[3], ping: true},
	}
	var col Collector
	done := make(chan struct{})
	go func() {
		e.RunRound(tasks, time.Hour, &col)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired; round hung")
	}
	if len(col.Pings) != len(tasks) {
		t.Fatalf("delivered %d records, want %d (abandoned slots must still deliver)", len(col.Pings), len(tasks))
	}
	if !col.Pings[1].Lost {
		t.Error("wedged task's record not booked as lost")
	}
	if reg.Counter(MetricAbandonedTasks, "").Value() == 0 {
		t.Error("abandoned-tasks counter never moved")
	}
	if reg.Counter(MetricDegradedRounds, "").Value() != 1 {
		t.Error("degraded-rounds counter != 1")
	}
	// The engine must survive the abandoned round.
	var col2 Collector
	e.RunRound([]measurement{tasks[0], tasks[2]}, 2*time.Hour, &col2)
	if len(col2.Pings) != 2 {
		t.Fatalf("post-abandon round delivered %d records, want 2", len(col2.Pings))
	}
}

// failWriter fails every write after the first n.
type failWriter struct {
	n    int
	seen int
}

func (f *failWriter) WriteTraceroute(tr *trace.Traceroute) error {
	f.seen++
	if f.seen > f.n {
		return fmt.Errorf("disk full")
	}
	return nil
}

func (f *failWriter) WritePing(p *trace.Ping) error {
	f.seen++
	if f.seen > f.n {
		return fmt.Errorf("disk full")
	}
	return nil
}

// TestSinkErrorAborts: a failing dataset sink aborts the campaign with a
// SinkError and counts every failed write.
func TestSinkErrorAborts(t *testing.T) {
	p, platform := newProber(t, 45, 1, 40)
	servers := SelectMesh(platform, 4, 45)
	sink := NewWriteSink(&failWriter{n: 3})
	reg := obs.NewRegistry()
	sink.Instrument(reg)
	err := PingMesh(p, PingMeshConfig{
		Pairs:    FullMeshPairs(servers),
		Duration: 2 * time.Hour,
		Interval: 15 * time.Minute,
		Abort:    sink.Err,
	}, sink)
	var sinkErr *SinkError
	if !errors.As(err, &sinkErr) {
		t.Fatalf("campaign returned %v, want a *SinkError", err)
	}
	if sink.Err() == nil {
		t.Fatal("sink reports no error")
	}
	if reg.Counter(MetricSinkWriteErrors, "").Value() == 0 {
		t.Error("sink write-error counter never moved")
	}
}

// bufCheckpointWriter is the test's flat sink: records encode into a
// buffer, Checkpoint flushes and reports the byte offset (the same
// contract the CLIs implement over an *os.File).
type bufCheckpointWriter struct {
	buf bytes.Buffer
	w   *trace.BinaryWriter
}

func newBufCheckpointWriter() *bufCheckpointWriter {
	b := &bufCheckpointWriter{}
	b.w = trace.NewBinaryWriter(&b.buf)
	return b
}

func (b *bufCheckpointWriter) WriteTraceroute(tr *trace.Traceroute) error {
	return b.w.WriteTraceroute(tr)
}
func (b *bufCheckpointWriter) WritePing(p *trace.Ping) error { return b.w.WritePing(p) }
func (b *bufCheckpointWriter) Checkpoint() (int64, error) {
	if err := b.w.Flush(); err != nil {
		return 0, err
	}
	return int64(b.buf.Len()), nil
}

// TestCrashResumeByteIdentical: a campaign killed by an injected crash
// and resumed from its checkpoint produces a byte-identical stream to an
// uninterrupted run — including quarantine state carried across the
// restart.
func TestCrashResumeByteIdentical(t *testing.T) {
	const seed = 46
	_, platform := newProber(t, seed, 3, 60)
	servers := SelectMesh(platform, 5, seed)
	pairs := UnorderedPairs(servers)

	cfg := func(p *probe.Prober) TracerouteCampaignConfig {
		plan := attachStandardPlan(t, p, platform, seed, 3)
		return TracerouteCampaignConfig{
			Pairs:          pairs,
			Duration:       4 * time.Hour,
			Interval:       15 * time.Minute,
			BothDirections: true,
			Workers:        4,
			Resilience: Resilience{
				Faults:          plan,
				Retry:           RetryPolicy{MaxAttempts: 2},
				QuarantineAfter: 2,
				ReprobeEvery:    3,
			},
		}
	}

	// Reference: one uninterrupted run.
	p1, _ := newProber(t, seed, 3, 60)
	clean := newBufCheckpointWriter()
	if err := TracerouteCampaign(p1, cfg(p1), NewWriteSink(clean)); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if clean.buf.Len() == 0 {
		t.Fatal("empty reference stream")
	}

	// Crash run: checkpoint every 30 virtual minutes, die at 1h10m.
	ckptPath := filepath.Join(t.TempDir(), "run.ckpt")
	p2, _ := newProber(t, seed, 3, 60)
	crashed := newBufCheckpointWriter()
	crashedSink := NewWriteSink(crashed)
	c2 := cfg(p2)
	c2.Checkpoint = &Checkpointer{
		Path:     ckptPath,
		Interval: 30 * time.Minute,
		Sink:     crashedSink,
		Records:  crashedSink.Count,
		Seed:     seed,
	}
	c2.CrashAt = 70 * time.Minute
	err := TracerouteCampaign(p2, c2, crashedSink)
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crash run returned %v, want ErrInjectedCrash", err)
	}

	// Resume: reload the checkpoint, truncate the flat stream to the
	// committed offset (what s2sgen -resume does to the file), rerun.
	cp, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Compatible("", seed, "", ""); err != nil {
		t.Fatal(err)
	}
	if cp.SinkPos > int64(crashed.buf.Len()) {
		t.Fatalf("checkpoint sink pos %d beyond stream length %d", cp.SinkPos, crashed.buf.Len())
	}
	p3, _ := newProber(t, seed, 3, 60)
	resumed := newBufCheckpointWriter()
	resumed.buf.Write(crashed.buf.Bytes()[:cp.SinkPos])
	resumedSink := NewWriteSink(resumed)
	resumedSink.SetCount(cp.Records)
	c3 := cfg(p3)
	c3.Resume = cp
	if err := TracerouteCampaign(p3, c3, resumedSink); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.buf.Bytes(), resumed.buf.Bytes()) {
		t.Fatalf("resumed stream differs from uninterrupted run (%d vs %d bytes)",
			resumed.buf.Len(), clean.buf.Len())
	}
}

// TestCompletionRate: under the standard fault plan with retries and
// quarantine armed, traceroute completion stays near the paper's ~75%
// server-to-server reachability operating point. One seed's rate scatters
// by about ±2 points around the plan's operating point, as wide as the
// band, so the band is checked against the mean over eight consecutive
// seeds (standard error under one point).
func TestCompletionRate(t *testing.T) {
	const firstSeed, seeds = 47, 8
	traceroutes, complete := 0, 0
	for seed := int64(firstSeed); seed < firstSeed+seeds; seed++ {
		p, platform := newProber(t, seed, 2, 60)
		plan := attachStandardPlan(t, p, platform, seed, 2)
		servers := SelectMesh(platform, 8, seed)
		var col Collector
		err := TracerouteCampaign(p, TracerouteCampaignConfig{
			Pairs:          UnorderedPairs(servers),
			Duration:       24 * time.Hour,
			Interval:       time.Hour,
			BothDirections: true,
			Workers:        4,
			Resilience: Resilience{
				Faults:          plan,
				Retry:           RetryPolicy{MaxAttempts: 3},
				QuarantineAfter: 3,
			},
		}, &col)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tr := range col.Traceroutes {
			if tr.Complete {
				n++
			}
		}
		t.Logf("seed %d: traceroutes=%d complete=%d rate=%.3f", seed, len(col.Traceroutes), n, float64(n)/float64(len(col.Traceroutes)))
		traceroutes += len(col.Traceroutes)
		complete += n
	}
	rate := float64(complete) / float64(traceroutes)
	t.Logf("seeds %d..%d: traceroutes=%d complete=%d rate=%.3f", firstSeed, firstSeed+seeds-1, traceroutes, complete, rate)
	if rate < 0.73 || rate > 0.77 {
		t.Errorf("completion rate %.3f outside [0.73, 0.77]", rate)
	}
}
