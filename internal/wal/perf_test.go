//go:build !race

package wal

// Allocation contract of the append path. Race instrumentation allocates,
// so this file builds only without -race.

import "testing"

// TestAppendSyncOffAllocs pins the append path at zero allocations per
// record once the log is warm: with fsync off, Append only frames the
// record into the log's reused append buffer.
func TestAppendSyncOffAllocs(t *testing.T) {
	l := warmLog(t, Options{Policy: SyncOff})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(benchPayload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v per record, want 0", allocs)
	}
}
