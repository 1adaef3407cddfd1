package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// writeRec routes one record of either kind into the writer.
func writeRec(t testing.TB, w *Writer, rec any) {
	t.Helper()
	var err error
	switch v := rec.(type) {
	case *trace.Traceroute:
		err = w.WriteTraceroute(v)
	case *trace.Ping:
		err = w.WritePing(v)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// delist rewrites the manifest without the named shard, as if the writer
// crashed after finalizing the segment but before committing the manifest.
func delist(t *testing.T, dir, file string) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim ShardEntry
	kept := m.Shards[:0]
	for _, e := range m.Shards {
		if e.File == file {
			victim = e
			continue
		}
		kept = append(kept, e)
	}
	if victim.File == "" {
		t.Fatalf("shard %s not in manifest", file)
	}
	m.Shards = kept
	m.Records -= victim.Records
	ix, _, err := readFooter(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	m.Traceroutes -= ix.Traceroutes
	m.Pings -= ix.Pings
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointContinues: a store checkpointed mid-write is readable at
// the committed prefix, and the writer keeps routing records afterwards
// without losing anything.
func TestCheckpointContinues(t *testing.T) {
	corpus := synthCorpus(21, 3, 2, 2)
	dir := filepath.Join(t.TempDir(), "ck.store")
	w, err := Create(dir, Options{PairShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	half := len(corpus) / 2
	for _, rec := range corpus[:half] {
		writeRec(t, w, rec)
	}
	pos, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if pos != int64(half) {
		t.Fatalf("checkpoint position = %d, want %d", pos, half)
	}
	// The committed prefix is fully readable right now.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest().Records != int64(half) {
		t.Fatalf("checkpointed store holds %d records, want %d", s.Manifest().Records, half)
	}
	for _, rec := range corpus[half:] {
		writeRec(t, w, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got collector
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Scan(1, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byPair(t, got.recs), byPair(t, corpus)) {
		t.Fatal("per-pair streams differ after checkpoint + continue")
	}
}

// TestOpenAdoptsOrphan: a finalized segment missing from the manifest
// (crash between segment finalize and manifest commit) is adopted by
// Open, so no committed record is lost.
func TestOpenAdoptsOrphan(t *testing.T) {
	corpus := synthCorpus(22, 3, 2, 2)
	dir := writeStore(t, corpus, Options{PairShards: 2})
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	delist(t, dir, m.Shards[0].File)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest().Records != int64(len(corpus)) {
		t.Fatalf("adopted store holds %d records, want %d", s.Manifest().Records, len(corpus))
	}
	var got collector
	if err := s.Scan(1, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byPair(t, got.recs), byPair(t, corpus)) {
		t.Fatal("per-pair streams differ after orphan adoption")
	}
}

// TestOpenRepairsTornSegment: an unlisted segment whose tail was lost in
// a crash is truncated to its decodable prefix and adopted; the rest of
// the store stays intact.
func TestOpenRepairsTornSegment(t *testing.T) {
	corpus := synthCorpus(23, 3, 2, 2)
	dir := writeStore(t, corpus, Options{PairShards: 2})
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Shards[0]
	delist(t, dir, victim.File)
	path := filepath.Join(dir, victim.File)
	ix, _, err := readFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut away the footer, the trailer, and part of the final record's
	// frame, leaving a decodable prefix of the payload.
	torn := int64(headerLen) + ix.PayloadBytes - 10
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered := s.Manifest().Records
	intact := int64(len(corpus)) - victim.Records
	if recovered <= intact || recovered >= int64(len(corpus)) {
		t.Fatalf("recovered %d records, want a strict prefix between %d and %d",
			recovered, intact, len(corpus))
	}
	var got collector
	if err := s.Scan(1, &got); err != nil {
		t.Fatal(err)
	}
	if int64(len(got.recs)) != recovered {
		t.Fatalf("scan delivered %d records, manifest says %d", len(got.recs), recovered)
	}
}

// TestResumeCleansDebris: Resume removes unlisted segment files and temp
// debris, then continues the store exactly where the manifest left it.
func TestResumeCleansDebris(t *testing.T) {
	corpus := synthCorpus(24, 3, 2, 2)
	dir := filepath.Join(t.TempDir(), "resume.store")
	w, err := Create(dir, Options{PairShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	half := len(corpus) / 2
	for _, rec := range corpus[:half] {
		writeRec(t, w, rec)
	}
	if _, err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash after the checkpoint: the process dies while
	// writing a new segment and a manifest temp file.
	debris := filepath.Join(dir, shardName(9, 0, 7))
	if err := os.WriteFile(debris, []byte("S2SSHRD1 torn beyond repair"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("unlisted segment debris survived Resume")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("manifest temp debris survived Resume")
	}
	if w2.Records() != int64(half) {
		t.Fatalf("resumed writer reports %d records, want %d", w2.Records(), half)
	}
	for _, rec := range corpus[half:] {
		writeRec(t, w2, rec)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got collector
	if err := s.Scan(1, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byPair(t, got.recs), byPair(t, corpus)) {
		t.Fatal("per-pair streams differ after crash + Resume")
	}
}

// TestVerify: a healthy store passes; payload corruption and manifest
// drift are reported as problems; orphans are counted but do not fail.
func TestVerify(t *testing.T) {
	corpus := synthCorpus(25, 3, 2, 2)
	dir := writeStore(t, corpus, Options{PairShards: 2})
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("healthy store fails verification: %s", rep)
	}
	if rep.Records != int64(len(corpus)) {
		t.Fatalf("verify decoded %d records, want %d", rep.Records, len(corpus))
	}

	// An orphan is reported but is not a failure.
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Shards[0]
	delist(t, dir, victim.File)
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Orphans != 1 {
		t.Fatalf("delisted segment: OK=%v orphans=%d, want OK with 1 orphan", rep.OK(), rep.Orphans)
	}

	// A frame table that names the wrong pair for a frame decodes cleanly
	// (every count and length still adds up) but fails verification.
	lie := writeStore(t, corpus, Options{PairShards: 2})
	lm, err := ReadManifest(lie)
	if err != nil {
		t.Fatal(err)
	}
	lpath := filepath.Join(lie, lm.Shards[0].File)
	ix, _, err := readFooter(lpath)
	if err != nil {
		t.Fatal(err)
	}
	i := 1
	for ix.Frames[i].Pair == ix.Frames[0].Pair {
		i++
	}
	ix.Frames[0].Pair, ix.Frames[i].Pair = ix.Frames[i].Pair, ix.Frames[0].Pair
	ldata, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ldata[:int64(headerLen)+ix.PayloadBytes]); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFooter(f, ix); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(lie)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.String(), "frame table says") {
		t.Fatalf("a frame table naming the wrong pair passed verification: %s", rep)
	}

	// Payload corruption inside a listed shard is a failure: flipping the
	// first frame's kind byte breaks the frame walk.
	m2, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m2.Shards[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupted payload passed verification")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, m2.Shards[0].File) {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems do not name the corrupted shard: %v", rep.Problems)
	}
}

// TestCreateLeavesReadableStore: the manifest exists from the first
// instant, so a crash before any checkpoint still leaves an openable
// (empty) store.
func TestCreateLeavesReadableStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh.store")
	if _, err := Create(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	// No Close, no Checkpoint: the process "crashed" right here.
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("store unreadable after crash-at-birth: %v", err)
	}
	if s.Manifest().Records != 0 {
		t.Fatalf("fresh store reports %d records", s.Manifest().Records)
	}
}
