package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Crash recovery. A store writer killed mid-run leaves three kinds of
// debris behind: segment files finalized after the last manifest write
// (valid footer, just unlisted), the torn segment that was open when the
// process died (no footer, possibly a truncated gzip stream), and stray
// .tmp files from interrupted atomic replaces. Open adopts the first kind
// and repairs the second in place; Resume — the campaign -resume path —
// instead discards everything not covered by the manifest, because the
// resumed campaign will regenerate those records byte-identically.

// parseShardName inverts shardName, accepting only canonical names.
func parseShardName(name string) (day, pairShard, seq int, ok bool) {
	var d, p, s int
	if n, err := fmt.Sscanf(name, "d%d-p%d-s%d.shard", &d, &p, &s); err != nil || n != 3 {
		return 0, 0, 0, false
	}
	if shardName(d, p, s) != name {
		return 0, 0, 0, false
	}
	return d, p, s, true
}

// shardFiles lists the .shard files in dir with their parsed coordinates.
type shardFile struct {
	name         string
	day, ps, seq int
}

func listShardFiles(dir string) ([]shardFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []shardFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		day, ps, seq, ok := parseShardName(e.Name())
		if !ok {
			continue
		}
		out = append(out, shardFile{name: e.Name(), day: day, ps: ps, seq: seq})
	}
	return out, nil
}

// adoptOrphans finds segment files not listed in the manifest, repairs
// torn ones in place, and returns shard entries (with decoded footers)
// for everything recovered. Files that cannot be recovered are left on
// disk and skipped; Verify reports them.
func adoptOrphans(dir string, man *Manifest) ([]shardInfo, error) {
	files, err := listShardFiles(dir)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(man.Shards))
	for _, e := range man.Shards {
		listed[e.File] = true
	}
	var adopted []shardInfo
	for _, f := range files {
		if listed[f.name] {
			continue
		}
		path := filepath.Join(dir, f.name)
		ix, gzipped, err := readFooter(path)
		if err != nil {
			// No valid footer: the segment was open when the writer died.
			// Truncate the torn tail and rebuild the footer from the
			// decodable prefix.
			if ix, gzipped, err = repairShard(path); err != nil {
				continue
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		adopted = append(adopted, shardInfo{
			ShardEntry: ShardEntry{
				File:      f.name,
				Day:       f.day,
				PairShard: f.ps,
				Seq:       f.seq,
				Records:   ix.Records,
				MinAtNS:   int64(ix.MinAt),
				MaxAtNS:   int64(ix.MaxAt),
				Bytes:     fi.Size(),
			},
			ix:      ix,
			gzipped: gzipped,
		})
	}
	return adopted, nil
}

// repairShard recovers the decodable prefix of a footer-less segment: the
// payload is decompressed best-effort, records are decoded until the torn
// tail, and the file is atomically rewritten as a well-formed shard with
// a rebuilt footer. Returns the new footer and the payload's compression,
// or an error if nothing was recoverable.
func repairShard(path string) (*shardIndex, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if len(data) < headerLen || string(data[:len(shardMagic)]) != shardMagic {
		return nil, false, fmt.Errorf("store: %s: not a shard file", filepath.Base(path))
	}
	gzipped := data[len(shardMagic)]&flagGzip != 0
	raw := data[headerLen:]
	if gzipped {
		gr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, false, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
		}
		// A torn gzip stream errors at the tail; keep what decompressed.
		raw, _ = io.ReadAll(gr)
	}
	// Decode records off the prefix until the torn tail.
	var recs []any
	br := trace.NewBinaryReader(bytes.NewReader(raw))
	for {
		rec, err := br.Next()
		if err != nil {
			break
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, false, fmt.Errorf("store: %s: no recoverable records", filepath.Base(path))
	}
	// Rewrite the file as a well-formed shard.
	tmpPath := path + ".tmp"
	defer os.Remove(tmpPath)
	sw, err := newShardWriter(tmpPath, gzipped)
	if err != nil {
		return nil, false, err
	}
	for _, rec := range recs {
		switch v := rec.(type) {
		case *trace.Traceroute:
			err = sw.writeTraceroute(v)
		case *trace.Ping:
			err = sw.writePing(v)
		}
		if err != nil {
			sw.file.Close()
			return nil, false, err
		}
	}
	_, err = sw.seal()
	if err == nil {
		err = sw.file.Sync()
	}
	if cerr := sw.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, false, err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return nil, false, err
	}
	return &sw.ix, gzipped, nil
}

// Resume reopens a store for continued writing from its last durable
// state (the manifest a Checkpoint or Close wrote). Segment files not
// listed in the manifest — debris from after the last checkpoint — are
// deleted, as are stray .tmp files: a resumed campaign regenerates those
// records deterministically, and keeping them would duplicate records.
func Resume(dir string) (*Writer, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	files, err := listShardFiles(dir)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(man.Shards))
	for _, e := range man.Shards {
		listed[e.File] = true
	}
	for _, f := range files {
		if !listed[f.name] {
			if err := os.Remove(filepath.Join(dir, f.name)); err != nil {
				return nil, err
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	opts, err := (&Options{
		DayLength:   man.DayLength(),
		PairShards:  man.PairShards,
		Compression: man.Compression,
		Tool:        man.Tool,
		Seed:        man.Seed,
		TopoDigest:  man.TopoDigest,
	}).withDefaults()
	if err != nil {
		return nil, err
	}
	w := &Writer{
		dir:         dir,
		opts:        opts,
		open:        make(map[cellID]*shardWriter),
		seqs:        make(map[cellID]int),
		done:        append([]ShardEntry(nil), man.Shards...),
		records:     man.Records,
		traceroutes: man.Traceroutes,
		pings:       man.Pings,
	}
	for _, e := range man.Shards {
		cell := cellID{day: e.Day, ps: e.PairShard}
		if e.Seq+1 > w.seqs[cell] {
			w.seqs[cell] = e.Seq + 1
		}
	}
	return w, nil
}

// VerifyReport is the result of a store fsck.
type VerifyReport struct {
	// Shards is the number of manifest-listed shards checked; Records is
	// the record count recovered by decoding every payload.
	Shards  int
	Records int64
	// Orphans counts segment files on disk that the manifest does not
	// list; Torn counts the subset without a valid footer.
	Orphans int
	Torn    int
	// Problems lists integrity violations (empty for a healthy store).
	Problems []string
}

// OK reports whether the store passed verification. Orphans are not
// failures — Open can adopt them — but problems are.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// String summarizes the report.
func (r *VerifyReport) String() string {
	s := fmt.Sprintf("%d shards, %d records, %d orphans (%d torn), %d problems",
		r.Shards, r.Records, r.Orphans, r.Torn, len(r.Problems))
	for _, p := range r.Problems {
		s += "\n  " + p
	}
	return s
}

// Verify fscks a store: every manifest-listed shard is opened, its
// payload walked at the frame level with every frame's key and length
// checked against the footer's frame table, and its counts cross-checked
// against the footer, the manifest entry, and the manifest totals.
// Unlisted segment files are counted as orphans (torn when they lack a
// valid footer) but do not fail verification. Verify never modifies the
// store.
func Verify(dir string) (*VerifyReport, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{}
	listed := make(map[string]bool, len(man.Shards))
	var total, trs, pgs int64
	for _, e := range man.Shards {
		listed[e.File] = true
		rep.Shards++
		path := filepath.Join(dir, e.File)
		ix, gzipped, err := readFooter(path)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("shard %s: %v", e.File, err))
			continue
		}
		if ix.Records != e.Records {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("shard %s: footer holds %d records, manifest says %d", e.File, ix.Records, e.Records))
		}
		raw, err := readPayload(path, ix)
		if err == nil {
			raw, err = framing(raw, gzipped, ix)
		}
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("shard %s: %v", e.File, err))
			continue
		}
		n, tn, pn, err := walkFrames(raw, ix)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("shard %s: %v", e.File, err))
			continue
		}
		if n != ix.Records || tn != ix.Traceroutes || pn != ix.Pings {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("shard %s: payload holds %d records (%d tr, %d pg), footer says %d (%d, %d)",
					e.File, n, tn, pn, ix.Records, ix.Traceroutes, ix.Pings))
			continue
		}
		rep.Records += n
		total += n
		trs += tn
		pgs += pn
	}
	if total != man.Records || trs != man.Traceroutes || pgs != man.Pings {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("manifest totals %d/%d/%d disagree with shard contents %d/%d/%d",
				man.Records, man.Traceroutes, man.Pings, total, trs, pgs))
	}
	files, err := listShardFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if listed[f.name] {
			continue
		}
		rep.Orphans++
		if _, _, err := readFooter(filepath.Join(dir, f.name)); err != nil {
			rep.Torn++
		}
	}
	sort.Strings(rep.Problems)
	return rep, nil
}

// walkFrames walks a shard's record framing header by header, checking
// each frame's key and length against the footer's frame table, and
// counts the frames by kind.
func walkFrames(raw []byte, ix *shardIndex) (n, traceroutes, pings int64, err error) {
	for off := 0; off < len(raw); {
		h, err := trace.ParseFrameHeader(raw[off:])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("frame at %d: %w", off, err)
		}
		if n >= int64(len(ix.Frames)) {
			return 0, 0, 0, fmt.Errorf("frame at %d is beyond the %d-frame table", off, len(ix.Frames))
		}
		if f := ix.Frames[n]; ix.Exact[f.Pair] != h.Key || int(f.Len) != h.Len {
			return 0, 0, 0, fmt.Errorf("frame %d at %d is %v/%d bytes, frame table says %v/%d",
				n, off, h.Key, h.Len, ix.Exact[f.Pair], f.Len)
		}
		n++
		if h.Kind == trace.FrameTraceroute {
			traceroutes++
		} else {
			pings++
		}
		off += h.Len
	}
	return n, traceroutes, pings, nil
}
