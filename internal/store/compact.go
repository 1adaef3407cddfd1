package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// readPayload returns a shard's on-disk payload bytes (compressed when the
// shard is). The caller has validated the file through readFooter.
func readPayload(path string, ix *shardIndex) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	disk := make([]byte, ix.PayloadBytes)
	if _, err := f.ReadAt(disk, int64(headerLen)); err != nil {
		return nil, err
	}
	return disk, nil
}

// framing returns the record framing of an on-disk payload: the payload
// itself, or its inflation when gzipped, checked against the footer's
// raw size so the frame table can slice it safely.
func framing(disk []byte, gzipped bool, ix *shardIndex) ([]byte, error) {
	if !gzipped {
		return disk, nil
	}
	gr, err := gzip.NewReader(bytes.NewReader(disk))
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, ix.RawBytes))
	if _, err := io.Copy(buf, gr); err != nil {
		return nil, err
	}
	if err := gr.Close(); err != nil {
		return nil, err
	}
	if int64(buf.Len()) != ix.RawBytes {
		return nil, fmt.Errorf("payload inflates to %d bytes, footer says %d", buf.Len(), ix.RawBytes)
	}
	return buf.Bytes(), nil
}

// Compact merges the segment files of every (day, pair-shard) cell that
// was split by writer eviction into a single shard. Payload bytes are
// copied verbatim and the footers' frame tables are concatenated with
// their pair ordinals remapped onto the merged pair list, so no frame is
// ever walked or decoded, and compressed shards are concatenated as gzip
// members rather than being recompressed. Compact operates on a closed
// store; reopen it afterwards.
func Compact(dir string) error {
	man, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	// Group the (already sorted) shard table by cell.
	var out []ShardEntry
	changed := false
	for i := 0; i < len(man.Shards); {
		j := i
		for j < len(man.Shards) &&
			man.Shards[j].Day == man.Shards[i].Day &&
			man.Shards[j].PairShard == man.Shards[i].PairShard {
			j++
		}
		group := man.Shards[i:j]
		i = j
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		merged, err := mergeSegments(dir, man, group)
		if err != nil {
			return err
		}
		out = append(out, merged)
		changed = true
	}
	if !changed {
		return nil
	}
	man.Shards = out
	sortShards(man.Shards)
	return WriteManifest(dir, man)
}

// mergeSegments concatenates one cell's segments into a fresh seq-0 shard.
func mergeSegments(dir string, man *Manifest, group []ShardEntry) (ShardEntry, error) {
	var merged shardIndex
	var table tableBuilder
	tmpPath := filepath.Join(dir, shardName(group[0].Day, group[0].PairShard, 0)+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return ShardEntry{}, err
	}
	defer os.Remove(tmpPath)
	flags := byte(0)
	if man.Compression == CompressionGzip {
		flags |= flagGzip
	}
	if _, err := tmp.Write(append([]byte(shardMagic), flags)); err != nil {
		tmp.Close()
		return ShardEntry{}, err
	}
	for gi, e := range group {
		path := filepath.Join(dir, e.File)
		ix, _, err := readFooter(path)
		if err != nil {
			tmp.Close()
			return ShardEntry{}, fmt.Errorf("store: compact %s: %w", e.File, err)
		}
		disk, err := readPayload(path, ix)
		if err != nil {
			tmp.Close()
			return ShardEntry{}, fmt.Errorf("store: compact %s: %w", e.File, err)
		}
		if _, err := tmp.Write(disk); err != nil {
			tmp.Close()
			return ShardEntry{}, err
		}
		for _, f := range ix.Frames {
			table.add(ix.Exact[f.Pair], f.Len)
		}
		if gi == 0 || ix.MinAt < merged.MinAt {
			merged.MinAt = ix.MinAt
		}
		if gi == 0 || ix.MaxAt > merged.MaxAt {
			merged.MaxAt = ix.MaxAt
		}
		merged.Records += ix.Records
		merged.Traceroutes += ix.Traceroutes
		merged.Pings += ix.Pings
		merged.PayloadBytes += ix.PayloadBytes
		merged.RawBytes += ix.RawBytes
	}
	merged.Exact, merged.Frames = table.finish()
	n, err := writeFooter(tmp, &merged)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ShardEntry{}, err
	}
	for _, e := range group {
		if err := os.Remove(filepath.Join(dir, e.File)); err != nil {
			return ShardEntry{}, err
		}
	}
	final := filepath.Join(dir, shardName(group[0].Day, group[0].PairShard, 0))
	if err := os.Rename(tmpPath, final); err != nil {
		return ShardEntry{}, err
	}
	return ShardEntry{
		File:      filepath.Base(final),
		Day:       group[0].Day,
		PairShard: group[0].PairShard,
		Seq:       0,
		Records:   merged.Records,
		MinAtNS:   int64(merged.MinAt),
		MaxAtNS:   int64(merged.MaxAt),
		Bytes:     int64(headerLen) + merged.PayloadBytes + n,
	}, nil
}
