package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// shardInfo is one shard file with its decoded footer.
type shardInfo struct {
	ShardEntry
	ix      *shardIndex
	gzipped bool // payload is gzip-compressed (shard header flag)
}

// Store is an opened dataset store. Reads are safe for concurrent use;
// consumers passed to Scan/PairsCtx/TimeRange are always called from the
// calling goroutine, in deterministic shard order.
type Store struct {
	dir    string
	man    *Manifest
	shards []shardInfo

	scannedC  *obs.Counter
	prunedC   *obs.Counter
	bytesC    *obs.Counter
	recordsC  *obs.Counter
	filteredC *obs.Counter
	rec       *flight.Recorder
}

// Open reads the manifest and every shard footer of a store directory.
// Footers are small (counts, span, pair list, frame table: a few bytes per
// record), so opening stays cheap even when the payloads do not fit in
// RAM.
//
// Open also recovers crash debris: segment files a killed writer
// finalized after its last manifest write are adopted, and the torn
// segment it was writing is truncated to its decodable prefix and
// adopted too. The in-memory manifest reflects what is actually readable;
// the on-disk manifest is left untouched (use Resume to continue writing,
// or Verify to audit without modifying anything).
func Open(dir string) (*Store, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, shards: make([]shardInfo, 0, len(man.Shards))}
	for _, e := range man.Shards {
		ix, gzipped, err := readFooter(filepath.Join(dir, e.File))
		if err != nil {
			return nil, fmt.Errorf("store: shard %s: %w", e.File, err)
		}
		if ix.Records != e.Records {
			return nil, fmt.Errorf("store: shard %s: footer holds %d records, manifest says %d",
				e.File, ix.Records, e.Records)
		}
		s.shards = append(s.shards, shardInfo{ShardEntry: e, ix: ix, gzipped: gzipped})
	}
	adopted, err := adoptOrphans(dir, man)
	if err != nil {
		return nil, err
	}
	for _, sh := range adopted {
		s.shards = append(s.shards, sh)
		man.Shards = append(man.Shards, sh.ShardEntry)
		man.Records += sh.ix.Records
		man.Traceroutes += sh.ix.Traceroutes
		man.Pings += sh.ix.Pings
	}
	if len(adopted) > 0 {
		sortShards(man.Shards)
		sort.Slice(s.shards, func(i, j int) bool {
			a, b := s.shards[i], s.shards[j]
			if a.Day != b.Day {
				return a.Day < b.Day
			}
			if a.PairShard != b.PairShard {
				return a.PairShard < b.PairShard
			}
			return a.Seq < b.Seq
		})
	}
	return s, nil
}

// Manifest returns the store manifest (shared, do not mutate).
func (s *Store) Manifest() *Manifest { return s.man }

// Instrument registers read-side telemetry: shards scanned vs pruned,
// payload bytes read off disk, records delivered, frames read but
// rejected by a time window.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.scannedC = reg.Counter(MetricShardsScanned, "shard payloads a store read decoded")
	s.prunedC = reg.Counter(MetricShardsPruned, "shards a store read skipped via the index")
	s.bytesC = reg.Counter(MetricBytesRead, "payload bytes a store read off disk")
	s.recordsC = reg.Counter(MetricRecordsRead, "records a store read delivered")
	s.filteredC = reg.Counter(MetricFramesFiltered, "frames read but skipped at the frame-header level by a time window")
}

// Trace records one flight span per shard scan.
func (s *Store) Trace(rec *flight.Recorder) { s.rec = rec }

// readFooter opens a shard file and decodes its footer index. gzipped
// reports the header's compression flag.
func readFooter(path string) (ix *shardIndex, gzipped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := fi.Size()
	if size < int64(headerLen+trailerLen) {
		return nil, false, fmt.Errorf("file too small (%d bytes)", size)
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, false, err
	}
	if string(hdr[:len(shardMagic)]) != shardMagic {
		return nil, false, fmt.Errorf("bad shard magic")
	}
	gzipped = hdr[len(shardMagic)]&flagGzip != 0
	var tr [trailerLen]byte
	if _, err := f.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, false, err
	}
	if string(tr[4:]) != trailerMagic {
		return nil, false, fmt.Errorf("bad trailer magic")
	}
	flen := int64(binary.LittleEndian.Uint32(tr[:4]))
	if flen <= 0 || flen > size-int64(headerLen+trailerLen) {
		return nil, false, fmt.Errorf("bad footer length %d", flen)
	}
	footer := make([]byte, flen)
	if _, err := f.ReadAt(footer, size-trailerLen-flen); err != nil {
		return nil, false, err
	}
	if ix, err = decodeIndex(footer); err != nil {
		return nil, false, err
	}
	if want := size - int64(headerLen) - flen - trailerLen; ix.PayloadBytes != want {
		return nil, false, fmt.Errorf("footer payload size %d disagrees with file layout %d", ix.PayloadBytes, want)
	}
	if !gzipped && ix.RawBytes != ix.PayloadBytes {
		return nil, false, fmt.Errorf("uncompressed payload of %d bytes, footer says %d raw", ix.PayloadBytes, ix.RawBytes)
	}
	return ix, gzipped, nil
}

// query selects the records a read delivers: those of keys (nil selects
// every key) with At in [from, to). to < 0 means no upper bound.
type query struct {
	keys     []trace.PairKey
	from, to time.Duration
}

func (q *query) inWindow(at time.Duration) bool {
	return at >= q.from && (q.to < 0 || at < q.to)
}

// pick is one shard a read opens, with the pair ordinals it wants from
// the shard's frame table (nil: every frame).
type pick struct {
	sh   *shardInfo
	want []bool
}

// plan selects the shards a query must open, in delivery order, and
// counts the rest as pruned: shards whose time span misses the window,
// and, for a key query, shards whose exact pair list holds none of the
// keys.
func (s *Store) plan(q *query) []pick {
	var picks []pick
	for i := range s.shards {
		p := pick{sh: &s.shards[i]}
		ix := p.sh.ix
		hit := ix.MaxAt >= q.from && (q.to < 0 || ix.MinAt < q.to)
		if hit && q.keys != nil {
			hit = false
			for _, k := range q.keys {
				if o := ix.ordinal(k); o >= 0 {
					if p.want == nil {
						p.want = make([]bool, len(ix.Exact))
					}
					p.want[o] = true
					hit = true
				}
			}
		}
		if !hit {
			s.prunedC.Inc()
			continue
		}
		picks = append(picks, p)
	}
	return picks
}

// fetch returns the record framing a pick selects, its frame count, and
// the on-disk bytes read. Without a pair selection that is the whole
// payload. With one, the frame table locates the wanted frames: an
// uncompressed shard reads exactly those byte ranges (adjacent frames
// merged into one read) into a buffer sized to their total; a gzip shard
// is inflated whole and the wanted frames are sliced out by the table.
// Either way the frames come back in write order.
func (s *Store) fetch(p pick) (buf []byte, frames int, read int64, err error) {
	sh := p.sh
	path := filepath.Join(s.dir, sh.File)
	if p.want == nil || sh.gzipped {
		disk, err := readPayload(path, sh.ix)
		if err == nil {
			buf, err = framing(disk, sh.gzipped, sh.ix)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		s.bytesC.Add(int64(len(disk)))
		if p.want == nil {
			return buf, int(sh.ix.Records), int64(len(disk)), nil
		}
		read = int64(len(disk))
	}
	type span struct{ off, n int64 }
	var spans []span
	var off, total int64
	for _, f := range sh.ix.Frames {
		if p.want[f.Pair] {
			if last := len(spans) - 1; last >= 0 && spans[last].off+spans[last].n == off {
				spans[last].n += int64(f.Len)
			} else {
				spans = append(spans, span{off, int64(f.Len)})
			}
			total += int64(f.Len)
			frames++
		}
		off += int64(f.Len)
	}
	if sh.gzipped {
		// Compact the wanted frames to the front of the inflated payload.
		pos := int64(0)
		for _, sp := range spans {
			pos += int64(copy(buf[pos:], buf[sp.off:sp.off+sp.n]))
		}
		return buf[:pos], frames, read, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	buf = make([]byte, total)
	pos := int64(0)
	for _, sp := range spans {
		if _, err := f.ReadAt(buf[pos:pos+sp.n], int64(headerLen)+sp.off); err != nil {
			return nil, 0, 0, err
		}
		pos += sp.n
	}
	s.bytesC.Add(total)
	return buf, frames, total, nil
}

// decodeShard reads one pick and returns its records in write order.
// Frames are decoded in place with trace.DecodeFrame, so only the records
// themselves allocate. When the window cuts the shard's span, each frame's
// timestamp is checked at the header level first and rejected frames are
// never decoded.
func (s *Store) decodeShard(p pick, q *query) ([]any, error) {
	sh := p.sh
	sp := s.rec.Begin(flight.PhShardScan, sh.ix.MinAt)
	fail := func(err error) ([]any, error) {
		sp.End(flight.Attrs{S: sh.File})
		return nil, fmt.Errorf("store: shard %s: %w", sh.File, err)
	}
	buf, frames, read, err := s.fetch(p)
	if err != nil {
		return fail(err)
	}
	clip := sh.ix.MinAt < q.from || (q.to >= 0 && sh.ix.MaxAt >= q.to)
	out := make([]any, 0, frames)
	skipped := int64(0)
	for off := 0; off < len(buf); {
		if clip {
			h, err := trace.ParseFrameHeader(buf[off:])
			if err != nil {
				return fail(fmt.Errorf("frame at %d: %w", off, err))
			}
			if !q.inWindow(h.At) {
				skipped++
				off += h.Len
				continue
			}
		}
		rec, n, err := trace.DecodeFrame(buf[off:])
		if err != nil {
			return fail(fmt.Errorf("frame at %d: %w", off, err))
		}
		out = append(out, rec)
		off += n
	}
	s.filteredC.Add(skipped)
	s.scannedC.Inc()
	s.recordsC.Add(int64(len(out)))
	sp.End(flight.Attrs{S: sh.File, N: int64(len(out)), M: read})
	return out, nil
}

// normalizeWorkers mirrors the campaign engine's convention: <= 0 selects
// all cores, anything else is taken as given (capped to the shard count by
// the caller's loop structure anyway).
func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// emit hands decoded records to c.
func emit(recs []any, c Consumer) {
	for _, rec := range recs {
		switch v := rec.(type) {
		case *trace.Traceroute:
			c.OnTraceroute(v)
		case *trace.Ping:
			c.OnPing(v)
		}
	}
}

// deliver decodes the picked shards and hands records to c in pick order.
// Per-pair record order is preserved: a pair's records live in one
// pair-shard column, columns are delivered day by day, and within a shard
// records keep write order. One worker decodes on the calling goroutine,
// checking ctx between shards; more decode on a pool.
func (s *Store) deliver(ctx context.Context, picks []pick, workers int, q *query, c Consumer) error {
	if len(picks) == 0 {
		return nil
	}
	workers = normalizeWorkers(workers)
	if workers > len(picks) {
		workers = len(picks)
	}
	if workers == 1 {
		for _, p := range picks {
			if err := ctx.Err(); err != nil {
				return err
			}
			recs, err := s.decodeShard(p, q)
			if err != nil {
				return err
			}
			emit(recs, c)
		}
		return nil
	}
	type batch struct {
		recs []any
		err  error
	}
	out := make([]chan batch, len(picks))
	for i := range out {
		out[i] = make(chan batch, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(picks) {
					return
				}
				// A canceled caller stops paying for decodes; shards already
				// claimed still drain through the ordered delivery loop.
				if err := ctx.Err(); err != nil {
					out[i] <- batch{err: err}
					continue
				}
				recs, err := s.decodeShard(picks[i], q)
				out[i] <- batch{recs: recs, err: err}
			}
		}()
	}
	var firstErr error
	for i := range out {
		b := <-out[i]
		if b.err != nil {
			if firstErr == nil {
				firstErr = b.err
			}
			continue
		}
		if firstErr != nil {
			continue // drain remaining workers, deliver nothing further
		}
		emit(b.recs, c)
	}
	wg.Wait()
	return firstErr
}

// Scan streams every record of the store to c on a pool of workers.
func (s *Store) Scan(workers int, c Consumer) error {
	q := query{to: -1}
	return s.deliver(context.Background(), s.plan(&q), workers, &q, c)
}

// PairsCtx streams the records of the requested timeline keys with At in
// [from, to) to c; to < 0 means no upper bound. Delivery is in shard
// order and, within a shard, in write order, so per-pair order and the
// interleave of a pair's v4 and v6 timelines match the writing campaign.
//
// Pushdown happens at two levels. Shards whose time span misses the
// window, or whose footer pair list holds none of the keys, are pruned
// unopened. Within a shard the footer's frame table locates the keys'
// frames, so no other pair's frame is read or walked; only frames of the
// wanted keys that fall outside the window are rejected, at the
// frame-header level (counted in MetricFramesFiltered).
//
// workers > 1 decodes shards on a pool; 1 decodes on the calling
// goroutine. Cancellation stops further shard decodes and surfaces
// ctx.Err(); records already decoded when the context fires may still be
// delivered.
func (s *Store) PairsCtx(ctx context.Context, workers int, keys []trace.PairKey, from, to time.Duration, c Consumer) error {
	if len(keys) == 0 {
		return nil
	}
	q := query{keys: keys, from: from, to: to}
	return s.deliver(ctx, s.plan(&q), workers, &q, c)
}

// PairCtx is the query service's point lookup: PairsCtx for exactly one
// key on the calling goroutine. A pair's records live in one pair-shard
// column, so the work is a handful of sequential reads of that pair's
// frames (asserted byte-for-byte by TestPairPointLookupPushdown), and a
// canceled query stops after the shard it is in.
func (s *Store) PairCtx(ctx context.Context, k trace.PairKey, from, to time.Duration, c Consumer) error {
	return s.PairsCtx(ctx, 1, []trace.PairKey{k}, from, to, c)
}

// PairKeys returns the sorted union of the distinct timeline keys recorded
// in the shard footers. Every footer holds its exact pair list, so the
// listing is always exhaustive; the second result is always true.
func (s *Store) PairKeys() (keys []trace.PairKey, exhaustive bool) {
	set := make(map[trace.PairKey]struct{})
	for i := range s.shards {
		for _, k := range s.shards[i].ix.Exact {
			set[k] = struct{}{}
		}
	}
	keys = make([]trace.PairKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return pairLess(keys[i], keys[j]) })
	return keys, true
}

// TimeRange streams the records with At in [from, to), pruning shards
// whose footer span falls outside the window. to < 0 means no upper bound.
func (s *Store) TimeRange(workers int, from, to time.Duration, c Consumer) error {
	q := query{from: from, to: to}
	return s.deliver(context.Background(), s.plan(&q), workers, &q, c)
}
