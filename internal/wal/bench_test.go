package wal

import (
	"fmt"
	"testing"
)

// benchPayload is a representative canonical NDJSON event line (~90 bytes),
// matching what qserved actually appends per event.
var benchPayload = []byte(`{"task":"t1234567","queue":3,"arrival":12345.678901,"depart":12346.789012,"final":false}` + "\n")

// warmLog opens a log in a temporary directory and appends past the
// one-time costs (segment creation, first-write page faults, append-buffer
// growth), so later appends measure the steady-state path, not setup.
func warmLog(tb testing.TB, opts Options) *Log {
	tb.Helper()
	l, err := Open(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	for i := 0; i < 1024; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		tb.Fatal(err)
	}
	return l
}

func benchAppend(b *testing.B, opts Options, syncEvery int) {
	b.Helper()
	l := warmLog(b, opts)
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
		if syncEvery > 0 && i%syncEvery == syncEvery-1 {
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWALAppend/off measures pure append throughput and
// allocs/record with fsync out of the picture; TestAppendSyncOffAllocs
// pins its allocations at 0.
func BenchmarkWALAppend(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchAppend(b, Options{Policy: SyncOff}, 0)
	})
	b.Run("batch4096", func(b *testing.B) {
		benchAppend(b, Options{Policy: SyncBatch}, 4096)
	})
}

// BenchmarkRecovery measures Open + full replay of a log holding 50k
// event-sized records (no snapshot), the worst-case restart path.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	const records = 50_000
	for i := 0; i < records; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(records * len(benchPayload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := l.Replay(func(lsn uint64, p []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatal(fmt.Errorf("replayed %d, want %d", n, records))
		}
		l.Close()
	}
}
