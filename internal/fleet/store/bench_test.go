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
// to append, which rewrites the cells file, decoding and encoding every
// record, syncs included.
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

// BenchmarkShardCycle times one sequential shard invocation against a
// store of 3000 records: Open, Put 94 new records (one shard of
// fleet-store-churn's size), Flush, which appends them to the log, Close.
// The keys are new each time, since a Put that replaces a stored record
// makes the Flush rewrite. Every 31 shards the log is removed, untimed,
// so the mean is the cost of a shard over a 31-shard pass's growing log.
func BenchmarkShardCycle(b *testing.B) {
	const base, shard, shards = 3000, 94, 31
	dir := b.TempDir()
	recs := benchRecords(base + shards*shard)
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs[:base] {
		s.Put(rec)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if i == shards {
			b.StopTimer()
			if err := os.Remove(filepath.Join(dir, LogFile)); err != nil {
				b.Fatal(err)
			}
			i = 0
			b.StartTimer()
		}
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs[base+i*shard : base+(i+1)*shard] {
			s.Put(rec)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
