//go:build !race

package serve

// Timing and allocation contracts of the ingest data plane. Race
// instrumentation distorts both, so this file builds only without -race.

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestIngestBodySpeedVsStdlib pins the batched ingest path's reason to
// exist: on the BenchmarkIngestBody body, ingestBody must run at least 2x
// faster than the pre-batching loop (per-line encoding/json and per-event
// store application), timed in one process so host speed cancels. Each
// side takes the fastest of 3 rounds of 3 ingests.
func TestIngestBodySpeedVsStdlib(t *testing.T) {
	const minSpeedup = 2
	srv, fastSt, body, _ := ingestBench(t, "fast")
	_, oldSt, _, _ := ingestBench(t, "stdlib")
	fast := func() {
		if sum, _, _ := srv.ingestBody(fastSt, body); sum.Rejected != 0 {
			t.Fatalf("rejects: %v", sum.Errors)
		}
	}
	stdlib := func() {
		if sum := oldIngestBody(oldSt, body); sum.Rejected != 0 {
			t.Fatalf("rejects: %v", sum.Errors)
		}
	}
	best := func(ingest func()) time.Duration {
		ingest() // warm the pools and the store's task freelist
		var min time.Duration
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			for i := 0; i < 3; i++ {
				ingest()
			}
			if d := time.Since(t0); r == 0 || d < min {
				min = d
			}
		}
		return min
	}
	f, s := best(fast), best(stdlib)
	speedup := float64(s) / float64(f)
	t.Logf("ingest body: fast %v, stdlib %v, %.1fx", f, s, speedup)
	if speedup < minSpeedup {
		t.Fatalf("ingestBody only %.1fx faster than the stdlib loop, want >= %dx", speedup, minSpeedup)
	}
}

// TestIngestBodyAllocs pins the steady-state allocation rate of one
// stream's ingest at 0.30 allocs/event. The body makes about one
// allocation per task, 0.25 per event at four hops; the margin absorbs
// sync.Pool eviction jitter, and a leak shows as whole allocations per
// event.
func TestIngestBodyAllocs(t *testing.T) {
	const maxPerEvent = 0.30
	srv, st, body, n := ingestBench(t, "fast")
	for i := 0; i < 2; i++ {
		srv.ingestBody(st, body)
	}
	allocs := testing.AllocsPerRun(10, func() { srv.ingestBody(st, body) })
	perEvent := allocs / float64(n)
	t.Logf("%v allocs per body of %d events, %.3f per event", allocs, n, perEvent)
	if perEvent > maxPerEvent {
		t.Fatalf("ingestBody allocates %.3f per event (%v per body of %d), want <= %.2f",
			perEvent, allocs, n, maxPerEvent)
	}
}

// TestIngestParallelStreamsAllocs pins the allocation rate of concurrent
// ingest at 1.0 allocs/event: one goroutine per GOMAXPROCS, each ingesting
// into its own stream, as BenchmarkIngestParallelStreams runs. Pool churn
// moves with goroutine scheduling here, so the ceiling is absolute and
// loose; a per-event allocation on the shared path crosses it.
func TestIngestParallelStreamsAllocs(t *testing.T) {
	const (
		maxPerEvent = 1.0
		rounds      = 50
	)
	srv, streams, body, n := parallelIngest(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for _, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				srv.ingestBody(st, body)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	events := len(streams) * rounds * n
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d streams: %.3f allocs/event", len(streams), perEvent)
	if perEvent > maxPerEvent {
		t.Fatalf("parallel ingest allocates %.3f per event, want <= %.1f", perEvent, maxPerEvent)
	}
}
