package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// ingestTestBody builds a valid NDJSON body of tasks tagged with prefix:
// each task visits queues 1..hops in path order and is sealed by its last
// event. It returns the body and the number of events.
func ingestTestBody(t testing.TB, prefix string, tasks, hops, numQueues int) ([]byte, int) {
	t.Helper()
	var events []IngestEvent
	for k := 0; k < tasks; k++ {
		name := fmt.Sprintf("%s-t%d", prefix, k)
		at := float64(k) * 0.25
		for h := 0; h < hops; h++ {
			dep := at + 0.125 + float64(h)*0.01
			events = append(events, IngestEvent{
				Task:       name,
				Queue:      1 + h%(numQueues-1),
				Arrival:    at,
				Depart:     dep,
				ObsArrival: h == 0,
				ObsDepart:  h == hops-1,
				Final:      h == hops-1,
			})
			at = dep
		}
	}
	body, err := AppendEvents(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	return body, len(events)
}

// TestIngestParallelShards hammers the sharded registry and the batched
// stores from many goroutines across many streams, with scrapes racing the
// writes. Runs under the verify.sh focused -race gate (-run 'Parallel').
func TestIngestParallelShards(t *testing.T) {
	srv, c := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	const (
		streams    = 8
		writers    = 4
		bodies     = 10
		tasksPer   = 5
		hops       = 3
		numQueues  = 3
		windowSize = 100
	)
	cfg := StreamConfig{NumQueues: numQueues, WindowTasks: windowSize, MinTasks: windowSize}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard-stream-%d", i)
		if err := c.CreateStream(ctx, ids[i], cfg); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, streams*writers+4)
	for si, id := range ids {
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(id string, si, g int) {
				defer wg.Done()
				for bIdx := 0; bIdx < bodies; bIdx++ {
					body, _ := ingestTestBody(t, fmt.Sprintf("s%dg%db%d", si, g, bIdx), tasksPer, hops, numQueues)
					sum, err := c.PostNDJSON(ctx, id, body)
					if err != nil {
						errs <- fmt.Errorf("stream %s: %w", id, err)
						return
					}
					if sum.Rejected != 0 {
						errs <- fmt.Errorf("stream %s: %d rejects: %v", id, sum.Rejected, sum.Errors)
						return
					}
				}
			}(id, si, g)
		}
	}
	// Scrapes race the ingest: /metrics walks every gaugefunc (store
	// counts), /varz refreshes the shared blocks, list iterates shards.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				get(t, ts.URL+"/metrics")
				get(t, ts.URL+"/varz")
				get(t, ts.URL+"/v1/streams")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	wantSealed := uint64(writers * bodies * tasksPer)
	for _, id := range ids {
		st := srv.lookup(id)
		if st == nil {
			t.Fatalf("stream %s vanished from the registry", id)
		}
		_, open, epoch := st.store.counts()
		if epoch != wantSealed || open != 0 {
			t.Errorf("stream %s: epoch %d open %d, want epoch %d open 0", id, epoch, open, wantSealed)
		}
		if got := st.m.EventsIngested.Value(); got != wantSealed*hops {
			t.Errorf("stream %s: ingested %d, want %d", id, got, wantSealed*hops)
		}
	}
}

// TestIngestBatchEquivalence is the bit-identical-estimates gate: the same
// lines ingested as one batched body and as one POST per line must produce
// identical summaries, identical windows, and an identical posterior.
func TestIngestBatchEquivalence(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	cfg := StreamConfig{NumQueues: 3, WindowTasks: 200, MinTasks: 200}
	for _, id := range []string{"batched", "perline"} {
		if err := c.CreateStream(ctx, id, cfg); err != nil {
			t.Fatal(err)
		}
	}

	body, _ := ingestTestBody(t, "eq", 40, 3, 3)
	// Splice in rejects: a bad queue mid-body and a malformed line, so the
	// equivalence also covers the error path's flush ordering.
	lines := bytes.SplitAfter(body, []byte("\n"))
	bad := [][]byte{
		[]byte(`{"task":"bad","queue":9,"arrival":0,"depart":1}` + "\n"),
		[]byte(`{"task":"worse","queue":` + "\n"),
	}
	lines = append(lines[:20], append(bad, lines[20:]...)...)
	body = bytes.Join(lines, nil)

	sumOne, err := c.PostNDJSON(ctx, "batched", body)
	if err != nil {
		t.Fatal(err)
	}
	var sumPer IngestSummary
	for _, ln := range bytes.Split(body, []byte("\n")) {
		if len(ln) == 0 {
			continue
		}
		s, err := c.PostNDJSON(ctx, "perline", ln)
		if err != nil {
			// A single-line body whose line is invalid is answered with 400
			// and no summary: that is exactly one reject.
			if !strings.Contains(err.Error(), "400") {
				t.Fatal(err)
			}
			sumPer.Rejected++
			continue
		}
		sumPer.Accepted += s.Accepted
		sumPer.Rejected += s.Rejected
		sumPer.SealedTasks += s.SealedTasks
	}
	if sumOne.Accepted != sumPer.Accepted || sumOne.Rejected != sumPer.Rejected ||
		sumOne.SealedTasks != sumPer.SealedTasks {
		t.Fatalf("summary mismatch: batched %+v vs per-line %+v", sumOne, sumPer)
	}
	if sumOne.Rejected != 2 {
		t.Fatalf("expected 2 rejects, got %+v", sumOne)
	}

	esOne, epochOne := windowOf(t, srv.lookup("batched").store)
	esPer, epochPer := windowOf(t, srv.lookup("perline").store)
	if epochOne != epochPer {
		t.Fatalf("epoch mismatch: %d vs %d", epochOne, epochPer)
	}
	if !reflect.DeepEqual(esOne, esPer) {
		t.Fatal("window event sets differ between batched and per-line ingest")
	}

	params, err := core.NewParams([]float64{4, 10, 9})
	if err != nil {
		t.Fatal(err)
	}
	postOne, err := core.Posterior(esOne, params, xrand.New(7), core.PosteriorOptions{Sweeps: 12})
	if err != nil {
		t.Fatal(err)
	}
	postPer, err := core.Posterior(esPer, params, xrand.New(7), core.PosteriorOptions{Sweeps: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(postOne.MeanService, postPer.MeanService) ||
		!reflect.DeepEqual(postOne.MeanWait, postPer.MeanWait) {
		t.Fatalf("posterior differs:\n batched  svc %v wait %v\n per-line svc %v wait %v",
			postOne.MeanService, postOne.MeanWait, postPer.MeanService, postPer.MeanWait)
	}
}

func TestIngestLineTooLong(t *testing.T) {
	srv, c := newTestServer(t)
	srv.SetMaxLineBytes(128)
	ctx := context.Background()
	if err := c.CreateStream(ctx, "s", StreamConfig{NumQueues: 2}); err != nil {
		t.Fatal(err)
	}
	long := fmt.Sprintf(`{"task":%q,"queue":1,"arrival":0,"depart":1}`, strings.Repeat("x", 200))
	body := []byte(`{"task":"ok","queue":1,"arrival":0,"depart":1,"final":true}` + "\n" + long + "\n")
	_, err := c.PostNDJSON(ctx, "s", body)
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	if !strings.Contains(err.Error(), "413") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want 413 naming line 2, got: %v", err)
	}
	// The valid line before the oversized one was still applied.
	if _, _, epoch := srv.lookup("s").store.counts(); epoch != 1 {
		t.Fatalf("epoch %d, want 1 (event before the long line applied)", epoch)
	}
}

func TestIngestCRLFAndBlankLines(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	if err := c.CreateStream(ctx, "s", StreamConfig{NumQueues: 2}); err != nil {
		t.Fatal(err)
	}
	body := []byte("\r\n{\"task\":\"a\",\"queue\":1,\"arrival\":0,\"depart\":1,\"final\":true}\r\n\n" +
		"{\"task\":\"b\",\"queue\":1,\"arrival\":0,\"depart\":2,\"final\":true}")
	sum, err := c.PostNDJSON(ctx, "s", body)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accepted != 2 || sum.Rejected != 0 || sum.SealedTasks != 2 {
		t.Fatalf("summary %+v, want accepted=2 sealed=2", sum)
	}
	if _, _, epoch := srv.lookup("s").store.counts(); epoch != 2 {
		t.Fatalf("epoch %d, want 2", epoch)
	}
}

// TestIngestMetricsExposed checks the new ingest data-plane series appear
// on /metrics after traffic (format validity is covered by the exposition
// parser in TestMetricsEndpoint and the obs package tests).
func TestIngestMetricsExposed(t *testing.T) {
	srv, c := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	if err := c.CreateStream(ctx, "m", StreamConfig{NumQueues: 3}); err != nil {
		t.Fatal(err)
	}
	body, n := ingestTestBody(t, "mx", 10, 2, 3)
	if _, err := c.PostNDJSON(ctx, "m", body); err != nil {
		t.Fatal(err)
	}
	text := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"qserved_ingest_batch_events_bucket{",
		"qserved_ingest_batch_events_count 1",
		"qserved_ingest_bytes_total " + fmt.Sprint(len(body)),
		`qserved_ingest_lock_wait_nanos_total{shard="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var sumJSON struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	_ = sumJSON // shape checked by TestMetricsJSONEndpoint
	// The batch histogram's _sum equals the events applied.
	if !strings.Contains(text, fmt.Sprintf("qserved_ingest_batch_events_sum %d", n)) {
		t.Errorf("/metrics: batch events sum != %d", n)
	}
}

// benchStream builds a stream wired into srv's registry and metrics but
// never registered with the inference executor (sched.wk stays nil, so
// notify and the scanner ignore it) — benchmarks measure only the ingest
// data plane.
func benchStream(tb testing.TB, srv *Server, id string, numQueues, window int) *stream {
	tb.Helper()
	st := &stream{
		id: id,
		cfg: StreamConfig{
			NumQueues: numQueues, WindowTasks: window, MinTasks: window,
		}.withDefaults(),
		store: newStore(numQueues, window),
	}
	st.m = newStreamMetrics(srv, st)
	sh := srv.registry.shard(id)
	sh.mu.Lock()
	sh.m[id] = st
	sh.mu.Unlock()
	srv.registry.count.Add(1)
	return st
}

// oldIngestBody replicates the pre-batching ingest loop (bufio.Scanner +
// per-line json.Unmarshal + per-event store.append) as the benchmark
// baseline the ≥2x acceptance target is measured against.
func oldIngestBody(st *stream, body []byte) (sum IngestSummary) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev IngestEvent
		err := json.Unmarshal(raw, &ev)
		var sealed bool
		if err == nil {
			sealed, err = st.store.append(ev)
		}
		if err != nil {
			sum.reject(line, err)
			continue
		}
		sum.Accepted++
		if sealed {
			sum.SealedTasks++
		}
	}
	return sum
}

// ingestBench is the one-stream fixture of BenchmarkIngestBody and its
// gates: a fresh server, one ingest-only stream named variant, and a body
// of 512 four-hop tasks on 4 queues with its event count.
func ingestBench(tb testing.TB, variant string) (*Server, *stream, []byte, int) {
	tb.Helper()
	const (
		tasks = 512
		hops  = 4
		nq    = 4
	)
	body, n := ingestTestBody(tb, "bench", tasks, hops, nq)
	srv := New(StreamConfig{})
	tb.Cleanup(srv.Close)
	return srv, benchStream(tb, srv, variant, nq, 2*tasks), body, n
}

// BenchmarkIngestBody measures the full server-side ingest data plane on
// one stream: line split, decode, validation, batched store application.
// "fast" is the production path; "stdlib" is the pre-batching baseline.
// TestIngestBodySpeedVsStdlib gates fast at >= 2x stdlib and
// TestIngestBodyAllocs its allocations per event.
func BenchmarkIngestBody(b *testing.B) {
	report := func(b *testing.B, sum IngestSummary, n int) {
		if sum.Rejected != 0 {
			b.Fatalf("rejects in benchmark body: %v", sum.Errors)
		}
		b.ReportMetric(float64(n), "events/op")
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("fast", func(b *testing.B) {
		srv, st, body, n := ingestBench(b, "fast")
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		// Warm the pools and the store's task freelist before the timed
		// loop (b.Loop starts the timer on its first call), so allocs/op
		// reflects the steady state at any -benchtime.
		var sum IngestSummary
		for i := 0; i < 2; i++ {
			sum, _, _ = srv.ingestBody(st, body)
		}
		for b.Loop() {
			sum, _, _ = srv.ingestBody(st, body)
		}
		report(b, sum, n)
	})
	b.Run("stdlib", func(b *testing.B) {
		_, st, body, n := ingestBench(b, "stdlib")
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var sum IngestSummary
		for i := 0; i < 2; i++ {
			sum = oldIngestBody(st, body)
		}
		for b.Loop() {
			sum = oldIngestBody(st, body)
		}
		report(b, sum, n)
	})
}

// parallelIngest is the fixture of BenchmarkIngestParallelStreams and its
// alloc gate: a fresh server with one ingest-only stream per GOMAXPROCS,
// each warmed by one ingest of body (64 four-hop tasks on 4 queues), so
// later ingests measure the steady state rather than registry and pool
// warmup.
func parallelIngest(tb testing.TB) (*Server, []*stream, []byte, int) {
	tb.Helper()
	const (
		tasks = 64
		hops  = 4
		nq    = 4
	)
	body, n := ingestTestBody(tb, "par", tasks, hops, nq)
	srv := New(StreamConfig{})
	tb.Cleanup(srv.Close)
	streams := make([]*stream, runtime.GOMAXPROCS(0))
	for i := range streams {
		streams[i] = benchStream(tb, srv, fmt.Sprintf("pstream-%d", i), nq, 2*tasks)
		if sum, _, _ := srv.ingestBody(streams[i], body); sum.Rejected != 0 {
			tb.Fatalf("rejects in benchmark body: %v", sum.Errors)
		}
	}
	return srv, streams, body, n
}

// BenchmarkIngestParallelStreams drives many goroutines into distinct
// streams at once: with the sharded registry and per-stream stores the
// aggregate rate should scale instead of serializing on a global lock.
// TestIngestParallelStreamsAllocs gates its allocations per event.
func BenchmarkIngestParallelStreams(b *testing.B) {
	srv, streams, body, n := parallelIngest(b)
	var next int
	var mu sync.Mutex
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		st := streams[next%len(streams)]
		next++
		mu.Unlock()
		for pb.Next() {
			sum, _, _ := srv.ingestBody(st, body)
			if sum.Rejected != 0 {
				b.Errorf("rejects: %v", sum.Errors)
				return
			}
		}
	})
	b.ReportMetric(float64(n), "events/op")
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
