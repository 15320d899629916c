package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// execPut creates a stream through the real handler without a network
// listener, so tests control the daemon's goroutine census exactly.
func execPut(tb testing.TB, srv *Server, id string, cfg StreamConfig) {
	tb.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/streams/"+id, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		tb.Fatalf("PUT %s: %d: %s", id, rec.Code, rec.Body.String())
	}
}

// execIngest seals n single-event tasks (arrivals from, from+1, ...) into
// the stream through the real ingest handler.
func execIngest(tb testing.TB, srv *Server, id string, from, n int) {
	tb.Helper()
	var buf bytes.Buffer
	for i := from; i < from+n; i++ {
		fmt.Fprintf(&buf,
			"{\"task\":\"t%d\",\"queue\":1,\"arrival\":%d,\"depart\":%d.5,\"obs_arrival\":true,\"obs_depart\":true,\"final\":true}\n",
			i, i, i)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/events", bytes.NewReader(buf.Bytes()))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST %s: %d: %s", id, rec.Code, rec.Body.String())
	}
}

func waitFor(tb testing.TB, timeout time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestExecutorGoroutineBound is the tentpole's acceptance test: the
// daemon's goroutine count is set by the inference worker pool, not the
// stream count. 1000 streams on a 4-worker executor must not add
// per-stream goroutines.
func TestExecutorGoroutineBound(t *testing.T) {
	srv := New(StreamConfig{}, WithInferenceWorkers(4), WithScanInterval(20*time.Millisecond))
	defer srv.Close()
	base := runtime.NumGoroutine()

	cfg := StreamConfig{
		NumQueues: 2, WindowTasks: 16, MinTasks: 2,
		EMIters: 4, PostSweeps: 2, Windows: 0,
	}
	const streams = 1000
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%04d", i)
		execPut(t, srv, id, cfg)
		execIngest(t, srv, id, 0, 4)
	}

	waitFor(t, 60*time.Second, "estimates on most streams", func() bool {
		return srv.metrics.estimates.Value() >= streams/2
	})

	if got := runtime.NumGoroutine(); got > base+16 {
		t.Fatalf("goroutine count grew with streams: %d at start, %d with %d streams", base, got, streams)
	}
}

// TestExecutorOverloadShed drives more runnable streams than the bounded
// queue admits: the overflow must be shed (counted on the overload
// counter) rather than queued without bound, and the scanner must
// re-admit shed streams until every one publishes.
func TestExecutorOverloadShed(t *testing.T) {
	srv := New(StreamConfig{},
		WithInferenceWorkers(1), WithQueueDepth(2), WithScanInterval(10*time.Millisecond),
		WithVisitBudget(200*time.Millisecond))
	defer srv.Close()

	// Occupy the only inference worker with a full-budget visit first, so
	// the registrations below queue up behind it instead of racing a
	// worker that can drain each new stream's no-op first visit as fast as
	// it is created. The busy stream's epoch never ends, but it republishes
	// after every visit (EM finalizes after 2 sweeps), so its staleness
	// resets and the streams under test outrank it afterwards.
	execPut(t, srv, "busy", StreamConfig{NumQueues: 2, WindowTasks: 32, MinTasks: 2, EMIters: 2, PostSweeps: 1 << 30})
	execIngest(t, srv, "busy", 0, 8)
	waitFor(t, 10*time.Second, "the busy stream's visit to start sweeping", func() bool {
		return srv.lookup("busy").m.SweepsRun.Value() > 0
	})

	cfg := StreamConfig{
		NumQueues: 2, WindowTasks: 32, MinTasks: 2,
		EMIters: 6, PostSweeps: 2, Windows: 0,
	}
	const streams = 8
	for i := 0; i < streams; i++ {
		execPut(t, srv, fmt.Sprintf("q%d", i), cfg)
	}
	if srv.metrics.overload.Value() == 0 {
		t.Fatal("registering 8 streams on a depth-2 queue shed nothing")
	}
	for i := 0; i < streams; i++ {
		execIngest(t, srv, fmt.Sprintf("q%d", i), 0, 8)
	}
	waitFor(t, 60*time.Second, "every stream to publish", func() bool {
		for i := 0; i < streams; i++ {
			if srv.lookup(fmt.Sprintf("q%d", i)).estimate.Load() == nil {
				return false
			}
		}
		return true
	})
}

// TestExecutorAnytimeEstimates pins the anytime contract: with a small
// per-visit sweep cap, one estimation epoch spans many visits, each
// republishing an improving snapshot — the estimate sequence advances
// more than once for a single data epoch, and the windowed snapshot never
// lags the estimate's epoch.
func TestExecutorAnytimeEstimates(t *testing.T) {
	srv := New(StreamConfig{}, WithInferenceWorkers(2), WithScanInterval(10*time.Millisecond))
	defer srv.Close()

	cfg := StreamConfig{
		NumQueues: 2, WindowTasks: 64, MinTasks: 8,
		EMIters: 24, PostSweeps: 12, Windows: 2, WindowSweeps: 4,
		SweepBatch: 4,
	}
	execPut(t, srv, "a", cfg)
	execIngest(t, srv, "a", 0, 40)

	st := srv.lookup("a")
	waitFor(t, 60*time.Second, "anytime republication", func() bool {
		est := st.estimate.Load()
		return est != nil && est.Seq >= 2
	})
	waitFor(t, 60*time.Second, "epoch to finish", func() bool {
		est := st.estimate.Load()
		srv.exec.mu.Lock()
		caught := st.sched.caughtEpoch
		srv.exec.mu.Unlock()
		return est != nil && est.Epoch == 40 && caught == 40
	})
	est := st.estimate.Load()
	ws := st.windows.Load()
	if ws == nil {
		t.Fatal("windows snapshot never published")
	}
	if ws.Epoch != est.Epoch {
		t.Fatalf("windows epoch %d != estimate epoch %d", ws.Epoch, est.Epoch)
	}
	if est.WindowTasks != 40 {
		t.Fatalf("estimate window tasks %d, want 40", est.WindowTasks)
	}
}

// TestExecutorIncrementalSlide checks the serve-side O(new events) story:
// after the first epoch, a small ingest batch must sync the warm window
// by appending only the delta (reuse ratio near 1), not rebuilding it.
func TestExecutorIncrementalSlide(t *testing.T) {
	srv := New(StreamConfig{}, WithInferenceWorkers(1), WithScanInterval(10*time.Millisecond))
	defer srv.Close()

	cfg := StreamConfig{
		NumQueues: 2, WindowTasks: 256, MinTasks: 8,
		EMIters: 6, PostSweeps: 2, Windows: 0,
	}
	execPut(t, srv, "inc", cfg)
	execIngest(t, srv, "inc", 0, 200)
	st := srv.lookup("inc")
	waitFor(t, 60*time.Second, "first epoch", func() bool {
		est := st.estimate.Load()
		return est != nil && est.Epoch == 200
	})
	newBefore, winBefore := srv.metrics.slideNew.Value(), srv.metrics.slideWindow.Value()

	execIngest(t, srv, "inc", 200, 10)
	waitFor(t, 60*time.Second, "incremental epoch", func() bool {
		est := st.estimate.Load()
		return est != nil && est.Epoch == 210
	})
	newDelta := srv.metrics.slideNew.Value() - newBefore
	winDelta := srv.metrics.slideWindow.Value() - winBefore
	// 10 sealed tasks x 2 events each (the q0 entry plus the service
	// event); the live window at sync held ~210 tasks.
	if newDelta != 20 {
		t.Fatalf("slide appended %d events for a 10-task delta, want 20", newDelta)
	}
	if winDelta < 400 {
		t.Fatalf("window events at sync %d, want >= 400 (no rebuild)", winDelta)
	}
	if srv.metrics.rebuilds.Value() != 0 {
		t.Fatalf("incremental slide triggered %d rebuilds", srv.metrics.rebuilds.Value())
	}
}

// BenchmarkManyStreams measures scheduler throughput: 64 warm streams,
// each iteration seals one task into every stream and waits until every
// stream's estimate catches up — ingest, priority queueing, incremental
// slides, and anytime publication all on the clock.
func BenchmarkManyStreams(b *testing.B) {
	srv := New(StreamConfig{}, WithScanInterval(10*time.Millisecond))
	defer srv.Close()

	cfg := StreamConfig{
		NumQueues: 2, WindowTasks: 64, MinTasks: 2,
		EMIters: 4, PostSweeps: 2, Windows: 0,
	}
	const streams = 64
	sts := make([]*stream, streams)
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("b%02d", i)
		execPut(b, srv, id, cfg)
		execIngest(b, srv, id, 0, 4)
		sts[i] = srv.lookup(id)
	}
	waitAll := func(epoch uint64) {
		for _, st := range sts {
			for {
				est := st.estimate.Load()
				if est != nil && est.Epoch >= epoch {
					break
				}
				runtime.Gosched()
			}
		}
	}
	waitAll(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var line bytes.Buffer
		arr := 4 + i
		fmt.Fprintf(&line,
			"{\"task\":\"n%d\",\"queue\":1,\"arrival\":%d,\"depart\":%d.5,\"obs_arrival\":true,\"obs_depart\":true,\"final\":true}\n",
			arr, arr, arr)
		for _, st := range sts {
			if _, _, err := srv.ingestBody(st, line.Bytes()); err != nil {
				b.Fatal(err)
			}
			srv.exec.notify(st)
		}
		waitAll(uint64(4 + i + 1))
	}
}
