package store

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// FuzzShardIndex throws arbitrary bytes at the footer decoder (it must
// reject or decode, never panic), checks that every accepted frame table
// is consistent with the counts and sizes, and round-trips every
// successful decode: re-encoding a decoded index and decoding again must
// reproduce it.
func FuzzShardIndex(f *testing.F) {
	seedIxs := []*shardIndex{
		{Records: 1, Traceroutes: 1, PayloadBytes: 10, RawBytes: 10,
			Exact:  []trace.PairKey{{SrcID: 1, DstID: 2}},
			Frames: []frameRef{{0, 10}}},
		{Records: 4, Traceroutes: 2, Pings: 2, MinAt: time.Hour, MaxAt: 30 * time.Hour,
			PayloadBytes: 512, RawBytes: 900,
			Exact:  []trace.PairKey{{SrcID: 0, DstID: 7}, {SrcID: 0, DstID: 7, V6: true}, {SrcID: 3, DstID: 3}},
			Frames: []frameRef{{0, 230}, {1, 250}, {2, 20}, {0, 400}}},
		{Records: 3, Pings: 3, MaxAt: time.Minute,
			PayloadBytes: 1 << 20, RawBytes: 3 << 14,
			Exact:  []trace.PairKey{{SrcID: 1, DstID: 2}, {SrcID: 200, DstID: 1, V6: true}},
			Frames: []frameRef{{1, 1 << 14}, {0, 1 << 14}, {1, 1 << 14}}},
	}
	for _, ix := range seedIxs {
		f.Add(encodeIndex(ix))
	}
	// A version-1 footer must be rejected, never misread as version 2.
	v1 := encodeIndex(seedIxs[0])
	v1[0] = 1
	f.Add(v1)
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := decodeIndex(data)
		if err != nil {
			return
		}
		again, err := decodeIndex(encodeIndex(ix))
		if err != nil {
			t.Fatalf("re-encode of a valid index does not decode: %v", err)
		}
		if !reflect.DeepEqual(ix, again) {
			t.Fatalf("round trip drifted:\nfirst  %+v\nsecond %+v", ix, again)
		}
		if ix.Records != ix.Traceroutes+ix.Pings {
			t.Fatalf("decoder accepted inconsistent counts: %d != %d + %d",
				ix.Records, ix.Traceroutes, ix.Pings)
		}
		// The frame table must be safe to slice the raw payload with.
		var sum int64
		for _, fr := range ix.Frames {
			if int(fr.Pair) >= len(ix.Exact) || fr.Len == 0 {
				t.Fatalf("decoder accepted frame %+v over %d pairs", fr, len(ix.Exact))
			}
			sum += int64(fr.Len)
		}
		if int64(len(ix.Frames)) != ix.Records || sum != ix.RawBytes {
			t.Fatalf("decoder accepted %d frames of %d bytes for %d records of %d bytes",
				len(ix.Frames), sum, ix.Records, ix.RawBytes)
		}
	})
}

// FuzzShardName guards the writer's file naming against manifest
// validation: every name the writer can emit must survive ReadManifest's
// path checks (no separators, no escapes).
func FuzzShardName(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(484, 7, 3)
	f.Add(99999, 99, 99)
	f.Fuzz(func(t *testing.T, day, ps, seq int) {
		if day < 0 || ps < 0 || seq < 0 {
			return
		}
		name := shardName(day, ps, seq)
		if bytes.ContainsAny([]byte(name), "/\\") || name == "" {
			t.Fatalf("shardName(%d,%d,%d) = %q contains a path separator", day, ps, seq, name)
		}
	})
}
