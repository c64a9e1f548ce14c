package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchRecords is a store of n records shaped like a fleet study's.
func benchRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		rec := fullRecord()
		rec.Seed = int64(i)
		rec.Policy = []string{"mobicore", "android-default", "ondemand+offline"}[i%3]
		for j, p := range floatSlots(&rec) {
			*p = math.Sqrt(float64(i*len(recs)+j+1)) * 1.37
		}
		rec.Key = rec.Identity.Key()
		recs[i] = rec
	}
	return recs
}

// BenchmarkFlush times one Flush of a 3000-record store with nothing new
// to append, which rewrites the cells file, syncs included.
func BenchmarkFlush(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, rec := range benchRecords(3000) {
		s.Put(rec)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen times one Open (and Close) of a 3000-record store.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range benchRecords(3000) {
		s.Put(rec)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdentityKey times one identity hash.
func BenchmarkIdentityKey(b *testing.B) {
	ids := make([]Identity, 64)
	for i, rec := range benchRecords(len(ids)) {
		ids[i] = rec.Identity
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		_ = ids[i%len(ids)].Key()
		i++
	}
}

// shardCycle is one sequential invocation against a 3000-record store:
// Open, Put 94 records (one shard of fleet-store-churn's size), Flush,
// Close. The 94 records are the same each time, so the store keeps its
// size; untrusted removes the sum file first, as an older store lacks it.
func shardCycle(b *testing.B, untrusted bool) {
	dir := b.TempDir()
	recs := benchRecords(3000 + 94)
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs[:3000] {
		s.Put(rec)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if untrusted {
			if err := os.Remove(filepath.Join(dir, SumFile)); err != nil && !os.IsNotExist(err) {
				b.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs[3000:] {
			s.Put(rec)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardCycle times one shard invocation on a store whose sum
// file matches, so Flush appends to the log until the log reaches the
// cells file's size and then rewrites: the mean is the amortized cost.
func BenchmarkShardCycle(b *testing.B) { shardCycle(b, false) }

// BenchmarkOpenUntrusted times the same invocation on a store without a
// sum file, so every Flush rewrites, decoding and re-encoding every line.
func BenchmarkOpenUntrusted(b *testing.B) { shardCycle(b, true) }
