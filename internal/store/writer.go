package store

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// countWriter counts bytes flowing through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type cellID struct{ day, ps int }

// shardWriter is one open shard segment.
type shardWriter struct {
	cell cellID
	seq  int
	name string

	file *os.File
	disk *countWriter // payload bytes on disk (post-compression)
	gz   *gzip.Writer // nil when uncompressed
	raw  *countWriter // uncompressed framing bytes
	bw   *trace.BinaryWriter

	ix    shardIndex
	table tableBuilder
	// end is the raw payload offset just past the last frame written.
	end int64
	// ticket orders shards for least-recently-written eviction.
	ticket int64
}

// newShardWriter creates the shard file at path and writes its header.
func newShardWriter(path string, gzipped bool) (*shardWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	flags := byte(0)
	if gzipped {
		flags |= flagGzip
	}
	if _, err := f.Write(append([]byte(shardMagic), flags)); err != nil {
		f.Close()
		return nil, err
	}
	sw := &shardWriter{file: f, disk: &countWriter{w: f}}
	var payload io.Writer = sw.disk
	if gzipped {
		sw.gz = gzip.NewWriter(sw.disk)
		payload = sw.gz
	}
	sw.raw = &countWriter{w: payload}
	sw.bw = trace.NewBinaryWriter(sw.raw)
	return sw, nil
}

// writeTraceroute appends one traceroute frame.
func (sw *shardWriter) writeTraceroute(tr *trace.Traceroute) error {
	if err := sw.bw.WriteTraceroute(tr); err != nil {
		return err
	}
	sw.note(tr.Key(), tr.At, false)
	return nil
}

// writePing appends one ping frame.
func (sw *shardWriter) writePing(p *trace.Ping) error {
	if err := sw.bw.WritePing(p); err != nil {
		return err
	}
	sw.note(p.Key(), p.At, true)
	return nil
}

// note folds the frame just written into the footer counts, span and
// frame table.
func (sw *shardWriter) note(k trace.PairKey, at time.Duration, isPing bool) {
	if sw.ix.Records == 0 || at < sw.ix.MinAt {
		sw.ix.MinAt = at
	}
	if sw.ix.Records == 0 || at > sw.ix.MaxAt {
		sw.ix.MaxAt = at
	}
	sw.ix.Records++
	if isPing {
		sw.ix.Pings++
	} else {
		sw.ix.Traceroutes++
	}
	end := sw.raw.n + int64(sw.bw.Buffered())
	sw.table.add(k, uint32(end-sw.end))
	sw.end = end
}

// seal flushes the payload and appends the footer and trailer. It returns
// the shard file's total size; the caller closes the file.
func (sw *shardWriter) seal() (int64, error) {
	if err := sw.bw.Flush(); err != nil {
		return 0, err
	}
	if sw.gz != nil {
		if err := sw.gz.Close(); err != nil {
			return 0, err
		}
	}
	sw.ix.PayloadBytes = sw.disk.n
	sw.ix.RawBytes = sw.raw.n
	sw.ix.Exact, sw.ix.Frames = sw.table.finish()
	n, err := writeFooter(sw.file, &sw.ix)
	return int64(headerLen) + sw.ix.PayloadBytes + n, err
}

// Writer routes records into shard files at write time and finalizes the
// manifest on Close. It is not safe for concurrent use: campaigns deliver
// records from one goroutine (the engine restores order before delivery),
// and the writer relies on that.
type Writer struct {
	dir    string
	opts   Options
	open   map[cellID]*shardWriter
	seqs   map[cellID]int
	done   []ShardEntry
	clock  int64
	closed bool

	records, traceroutes, pings int64

	shardsC  *obs.Counter
	recordsC *obs.Counter
	bytesC   *obs.Counter
}

// Create makes dir (which must not already contain a store) and returns a
// Writer over it.
func Create(dir string, o Options) (*Writer, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if IsStore(dir) {
		return nil, fmt.Errorf("store: %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		dir:  dir,
		opts: opts,
		open: make(map[cellID]*shardWriter),
		seqs: make(map[cellID]int),
	}
	// Write the (empty) manifest immediately so a crash at any later
	// instant leaves a readable store: uncommitted segment files are
	// recovered or discarded against it (see Open and Resume).
	if err := WriteManifest(dir, w.manifest()); err != nil {
		return nil, err
	}
	return w, nil
}

// SetProvenance records the run identity written into the manifest at
// Close. It exists for callers (s2sreport) whose topology digest is only
// known after the writer must already be wired into a campaign.
func (w *Writer) SetProvenance(tool string, seed int64, topoDigest string) {
	w.opts.Tool, w.opts.Seed, w.opts.TopoDigest = tool, seed, topoDigest
}

// Instrument registers write-side telemetry: shards finalized, records
// routed, payload bytes on disk.
func (w *Writer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.shardsC = reg.Counter(MetricShardsWritten, "shard files the store writer finalized")
	w.recordsC = reg.Counter(MetricRecordsWritten, "records routed into store shards")
	w.bytesC = reg.Counter(MetricBytesWritten, "payload bytes written to store shards (on-disk size)")
}

// shardFor returns the open segment for a record, opening (and evicting)
// as needed.
func (w *Writer) shardFor(k trace.PairKey, at time.Duration) (*shardWriter, error) {
	if at < 0 {
		return nil, fmt.Errorf("store: negative record timestamp %v", at)
	}
	day := 0
	if w.opts.DayLength > 0 {
		day = int(at / w.opts.DayLength)
	}
	cell := cellID{day: day, ps: PairShardOf(k, w.opts.PairShards)}
	if sw := w.open[cell]; sw != nil {
		return sw, nil
	}
	if len(w.open) >= w.opts.MaxOpenShards {
		if err := w.evictOldest(); err != nil {
			return nil, err
		}
	}
	seq := w.seqs[cell]
	w.seqs[cell] = seq + 1
	sw, err := w.openShard(cell, seq)
	if err != nil {
		return nil, err
	}
	w.open[cell] = sw
	return sw, nil
}

func (w *Writer) openShard(cell cellID, seq int) (*shardWriter, error) {
	name := shardName(cell.day, cell.ps, seq)
	sw, err := newShardWriter(filepath.Join(w.dir, name), w.opts.Compression == CompressionGzip)
	if err != nil {
		return nil, err
	}
	sw.cell, sw.seq, sw.name = cell, seq, name
	return sw, nil
}

func (w *Writer) evictOldest() error {
	var victim *shardWriter
	for _, sw := range w.open {
		if victim == nil || sw.ticket < victim.ticket ||
			(sw.ticket == victim.ticket && sw.name < victim.name) {
			victim = sw
		}
	}
	if victim == nil {
		return nil
	}
	return w.finalize(victim)
}

// note updates the writer-wide counts after sw took a record.
func (w *Writer) note(sw *shardWriter, isPing bool) {
	if isPing {
		w.pings++
	} else {
		w.traceroutes++
	}
	w.clock++
	sw.ticket = w.clock
	w.records++
	w.recordsC.Inc()
}

// WriteTraceroute routes one traceroute into its shard.
func (w *Writer) WriteTraceroute(tr *trace.Traceroute) error {
	if w.closed {
		return fmt.Errorf("store: write after Close")
	}
	sw, err := w.shardFor(tr.Key(), tr.At)
	if err != nil {
		return err
	}
	if err := sw.writeTraceroute(tr); err != nil {
		return err
	}
	w.note(sw, false)
	return nil
}

// WritePing routes one ping into its shard.
func (w *Writer) WritePing(p *trace.Ping) error {
	if w.closed {
		return fmt.Errorf("store: write after Close")
	}
	sw, err := w.shardFor(p.Key(), p.At)
	if err != nil {
		return err
	}
	if err := sw.writePing(p); err != nil {
		return err
	}
	w.note(sw, true)
	return nil
}

// finalize seals a shard and records its manifest entry.
func (w *Writer) finalize(sw *shardWriter) error {
	delete(w.open, sw.cell)
	size, err := sw.seal()
	if cerr := sw.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	w.done = append(w.done, ShardEntry{
		File:      sw.name,
		Day:       sw.cell.day,
		PairShard: sw.cell.ps,
		Seq:       sw.seq,
		Records:   sw.ix.Records,
		MinAtNS:   int64(sw.ix.MinAt),
		MaxAtNS:   int64(sw.ix.MaxAt),
		Bytes:     size,
	})
	w.shardsC.Inc()
	w.bytesC.Add(sw.ix.PayloadBytes)
	return nil
}

// finalizeOpen finalizes every open shard in name order.
func (w *Writer) finalizeOpen() error {
	remaining := make([]*shardWriter, 0, len(w.open))
	for _, sw := range w.open {
		remaining = append(remaining, sw)
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].name < remaining[j].name })
	for _, sw := range remaining {
		if err := w.finalize(sw); err != nil {
			return err
		}
	}
	return nil
}

// manifest builds the manifest for the shards finalized so far.
func (w *Writer) manifest() *Manifest {
	m := &Manifest{
		Version:     ManifestVersion,
		Tool:        w.opts.Tool,
		Seed:        w.opts.Seed,
		TopoDigest:  w.opts.TopoDigest,
		DayLengthNS: int64(w.opts.DayLength),
		PairShards:  w.opts.PairShards,
		Compression: w.opts.Compression,
		Records:     w.records,
		Traceroutes: w.traceroutes,
		Pings:       w.pings,
		Shards:      append([]ShardEntry(nil), w.done...),
	}
	sortShards(m.Shards)
	return m
}

// Records returns how many records have been routed into the store.
func (w *Writer) Records() int64 { return w.records }

// Checkpoint makes everything written so far durable — every open segment
// is finalized (footer and trailer written, file closed) and the manifest
// is atomically replaced — and returns the committed record count as the
// resume position. The writer stays usable: cells written again after a
// checkpoint continue in follow-up segment files (Compact merges them).
// Checkpoint satisfies campaign.CheckpointableWriter.
func (w *Writer) Checkpoint() (int64, error) {
	if w.closed {
		return 0, fmt.Errorf("store: checkpoint after Close")
	}
	if err := w.finalizeOpen(); err != nil {
		return 0, err
	}
	if err := WriteManifest(w.dir, w.manifest()); err != nil {
		return 0, err
	}
	return w.records, nil
}

// Close finalizes every open shard and writes the manifest. The Writer is
// unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.finalizeOpen(); err != nil {
		return err
	}
	return WriteManifest(w.dir, w.manifest())
}
