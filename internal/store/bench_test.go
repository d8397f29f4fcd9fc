package store_test

import (
	"testing"

	"repro/internal/shard"
	"repro/internal/store"
)

// BenchmarkStorePut times one durable Put of a 64-point entry: encode,
// checksum, temp write, file fsync, rename and directory fsync.
// Rewriting one digest keeps the directory at one entry.
func BenchmarkStorePut(b *testing.B) {
	s, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	digest := shard.Digest("bench-put")
	ent := testEntry(bigCurve(64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(digest, ent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet times one verified hit of a 64-point entry: read,
// envelope and checksum verification, payload decode and validation,
// and the recency touch.
func BenchmarkStoreGet(b *testing.B) {
	s, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	digest := shard.Digest("bench-get")
	if err := s.Put(digest, testEntry(bigCurve(64))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(digest); !ok {
			b.Fatal("miss")
		}
	}
}
