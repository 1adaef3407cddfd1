package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/trace"
)

// Shard file framing:
//
//	8 bytes  magic "S2SSHRD1"
//	1 byte   flags (bit0: gzip payload)
//	payload  record frames (trace binary framing, possibly gzip)
//	footer   encoded shardIndex (always uncompressed)
//	4 bytes  footer length, little endian
//	4 bytes  trailer magic "S2SX"
//
// The footer (version 2) is, in order: the version byte; uvarint record,
// traceroute and ping counts; varint MinAt and MaxAt; uvarint payload and
// raw (uncompressed) byte counts; the exact pair list (uvarint count, then
// per pair varint src, varint dst, one v6 byte, sorted and distinct); and
// the frame table (uvarint count == records, then per frame in write order
// the uvarint ordinal of its pair in the list and its uvarint length).
// Frame offsets into the raw payload are the prefix sums of the lengths,
// so a point read locates one pair's frames without touching the others.
const (
	shardMagic   = "S2SSHRD1"
	trailerMagic = "S2SX"
	headerLen    = len(shardMagic) + 1
	trailerLen   = 8

	flagGzip byte = 1
)

// indexVersion is the footer encoding version.
const indexVersion = 2

// shardIndex is the per-shard footer: everything a reader needs to decide
// whether to open the payload and where a pair's frames sit in it.
type shardIndex struct {
	// Records counts all records; Traceroutes + Pings == Records.
	Records     int64
	Traceroutes int64
	Pings       int64
	// MinAt/MaxAt span the record timestamps.
	MinAt, MaxAt time.Duration
	// PayloadBytes is the on-disk payload size (compressed size when the
	// shard is compressed); RawBytes is the uncompressed framing size.
	PayloadBytes int64
	RawBytes     int64
	// Exact is the sorted distinct pair list.
	Exact []trace.PairKey
	// Frames is the frame table: one entry per record, in write order.
	Frames []frameRef
}

// frameRef is one frame-table entry: the frame's pair, as an ordinal into
// shardIndex.Exact, and its encoded length in the raw payload.
type frameRef struct {
	Pair uint32
	Len  uint32
}

// ordinal returns k's position in the exact pair list, or -1.
func (ix *shardIndex) ordinal(k trace.PairKey) int {
	i := sort.Search(len(ix.Exact), func(i int) bool { return !pairLess(ix.Exact[i], k) })
	if i < len(ix.Exact) && ix.Exact[i] == k {
		return i
	}
	return -1
}

func pairLess(a, b trace.PairKey) bool {
	if a.SrcID != b.SrcID {
		return a.SrcID < b.SrcID
	}
	if a.DstID != b.DstID {
		return a.DstID < b.DstID
	}
	return !a.V6 && b.V6
}

// tableBuilder accumulates a shard's pair set and frame table in write
// order. Ordinals are provisional (first-seen order) until finish sorts
// the pair list and remaps them.
type tableBuilder struct {
	ords   map[trace.PairKey]uint32
	frames []frameRef
}

// add records one frame of pair k and length n.
func (b *tableBuilder) add(k trace.PairKey, n uint32) {
	o, ok := b.ords[k]
	if !ok {
		if b.ords == nil {
			b.ords = make(map[trace.PairKey]uint32)
		}
		o = uint32(len(b.ords))
		b.ords[k] = o
	}
	b.frames = append(b.frames, frameRef{Pair: o, Len: n})
}

// finish returns the sorted pair list and the frame table with ordinals
// into it. The builder must not be used afterwards.
func (b *tableBuilder) finish() ([]trace.PairKey, []frameRef) {
	exact := make([]trace.PairKey, 0, len(b.ords))
	for k := range b.ords {
		exact = append(exact, k)
	}
	sort.Slice(exact, func(i, j int) bool { return pairLess(exact[i], exact[j]) })
	remap := make([]uint32, len(exact))
	for pos, k := range exact {
		remap[b.ords[k]] = uint32(pos)
	}
	for i := range b.frames {
		b.frames[i].Pair = remap[b.frames[i].Pair]
	}
	return exact, b.frames
}

// encodeIndex serializes the footer.
func encodeIndex(ix *shardIndex) []byte {
	buf := make([]byte, 0, 64+len(ix.Exact)*8+len(ix.Frames)*4)
	buf = append(buf, indexVersion)
	buf = binary.AppendUvarint(buf, uint64(ix.Records))
	buf = binary.AppendUvarint(buf, uint64(ix.Traceroutes))
	buf = binary.AppendUvarint(buf, uint64(ix.Pings))
	buf = binary.AppendVarint(buf, int64(ix.MinAt))
	buf = binary.AppendVarint(buf, int64(ix.MaxAt))
	buf = binary.AppendUvarint(buf, uint64(ix.PayloadBytes))
	buf = binary.AppendUvarint(buf, uint64(ix.RawBytes))
	buf = binary.AppendUvarint(buf, uint64(len(ix.Exact)))
	for _, k := range ix.Exact {
		buf = binary.AppendVarint(buf, int64(k.SrcID))
		buf = binary.AppendVarint(buf, int64(k.DstID))
		if k.V6 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(ix.Frames)))
	for _, f := range ix.Frames {
		buf = binary.AppendUvarint(buf, uint64(f.Pair))
		buf = binary.AppendUvarint(buf, uint64(f.Len))
	}
	return buf
}

// writeFooter appends the encoded footer and the trailer to a shard file
// whose payload w has just received, returning the bytes written. It is
// the one footer writer: the store writer, Compact and crash repair all
// seal shards through it.
func writeFooter(w io.Writer, ix *shardIndex) (int64, error) {
	buf := encodeIndex(ix)
	flen := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(flen))
	buf = append(buf, trailerMagic...)
	n, err := w.Write(buf)
	return int64(n), err
}

type indexCursor struct {
	data []byte
	off  int
}

func (c *indexCursor) byte() (byte, error) {
	if c.off >= len(c.data) {
		return 0, fmt.Errorf("store: truncated index at offset %d", c.off)
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

func (c *indexCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: bad uvarint in index at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *indexCursor) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: bad varint in index at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// remaining is the number of undecoded bytes.
func (c *indexCursor) remaining() int { return len(c.data) - c.off }

// decodeIndex parses an encoded footer. It validates counts, sizes and the
// frame table against each other, so a corrupt footer fails cleanly
// instead of driving huge allocations or out-of-range payload reads.
func decodeIndex(data []byte) (*shardIndex, error) {
	c := indexCursor{data: data}
	ver, err := c.byte()
	if err != nil {
		return nil, err
	}
	if ver == 1 {
		return nil, fmt.Errorf("store: shard footer version 1 has no frame table; regenerate the store")
	}
	if ver != indexVersion {
		return nil, fmt.Errorf("store: unsupported shard footer version %d", ver)
	}
	ix := new(shardIndex)
	for _, dst := range []*int64{&ix.Records, &ix.Traceroutes, &ix.Pings} {
		v, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<48 {
			return nil, fmt.Errorf("store: implausible count %d in index", v)
		}
		*dst = int64(v)
	}
	if ix.Traceroutes+ix.Pings != ix.Records {
		return nil, fmt.Errorf("store: index counts disagree (%d+%d != %d)",
			ix.Traceroutes, ix.Pings, ix.Records)
	}
	minAt, err := c.varint()
	if err != nil {
		return nil, err
	}
	maxAt, err := c.varint()
	if err != nil {
		return nil, err
	}
	if maxAt < minAt {
		return nil, fmt.Errorf("store: index span inverted (%d > %d)", minAt, maxAt)
	}
	ix.MinAt, ix.MaxAt = time.Duration(minAt), time.Duration(maxAt)
	for _, dst := range []*int64{&ix.PayloadBytes, &ix.RawBytes} {
		v, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<56 {
			return nil, fmt.Errorf("store: implausible byte count %d in index", v)
		}
		*dst = int64(v)
	}

	// Pair list: at least 3 encoded bytes per pair, and no more pairs than
	// records (every pair owns at least one frame).
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(ix.Records) || n > uint64(c.remaining()/3) {
		return nil, fmt.Errorf("store: pair list of %d exceeds the index", n)
	}
	ix.Exact = make([]trace.PairKey, 0, n)
	for i := uint64(0); i < n; i++ {
		src, err := c.varint()
		if err != nil {
			return nil, err
		}
		dst, err := c.varint()
		if err != nil {
			return nil, err
		}
		v6, err := c.byte()
		if err != nil {
			return nil, err
		}
		if v6 > 1 {
			return nil, fmt.Errorf("store: bad v6 flag %d in index", v6)
		}
		k := trace.PairKey{SrcID: int(src), DstID: int(dst), V6: v6 == 1}
		if len(ix.Exact) > 0 && !pairLess(ix.Exact[len(ix.Exact)-1], k) {
			return nil, fmt.Errorf("store: pair list not sorted and distinct at %d", i)
		}
		ix.Exact = append(ix.Exact, k)
	}

	// Frame table: one entry (at least 2 encoded bytes) per record, every
	// ordinal in the pair list, lengths summing to the raw payload size.
	nf, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if nf != uint64(ix.Records) {
		return nil, fmt.Errorf("store: frame table holds %d frames, index says %d records", nf, ix.Records)
	}
	if nf > uint64(c.remaining()/2) {
		return nil, fmt.Errorf("store: frame table of %d frames exceeds the index", nf)
	}
	ix.Frames = make([]frameRef, nf)
	used := make([]bool, len(ix.Exact))
	var sum int64
	for i := range ix.Frames {
		pair, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if pair >= uint64(len(ix.Exact)) {
			return nil, fmt.Errorf("store: frame %d names pair %d of %d", i, pair, len(ix.Exact))
		}
		flen, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if flen == 0 || flen > math.MaxUint32 || flen > uint64(ix.RawBytes-sum) {
			return nil, fmt.Errorf("store: frame %d length %d overruns the %d-byte payload", i, flen, ix.RawBytes)
		}
		sum += int64(flen)
		used[pair] = true
		ix.Frames[i] = frameRef{Pair: uint32(pair), Len: uint32(flen)}
	}
	if sum != ix.RawBytes {
		return nil, fmt.Errorf("store: frame lengths sum to %d, index says %d raw bytes", sum, ix.RawBytes)
	}
	for i, ok := range used {
		if !ok {
			return nil, fmt.Errorf("store: pair %v has no frame", ix.Exact[i])
		}
	}
	if c.off != len(c.data) {
		return nil, fmt.Errorf("store: %d trailing bytes after index", len(c.data)-c.off)
	}
	return ix, nil
}
