package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/qnet"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestEndToEndTandemReplay is the acceptance test of the daemon: start
// qserved on a random port, replay a partially observed two-queue tandem
// trace through the ingest API exactly as cmd/qload does, poll the
// estimate endpoint until it covers the replayed tasks, and check λ̂ and
// the per-queue µ̂ against the simulator's ground truth.
func TestEndToEndTandemReplay(t *testing.T) {
	const (
		lambda = 4.0
		mu1    = 12.0
		mu2    = 9.0
		tasks  = 600
	)
	net, err := qnet.Tiered(dist.NewExponential(lambda), []qnet.TierSpec{
		{Name: "app", Replicas: 1, Service: dist.NewExponential(mu1)},
		{Name: "db", Replicas: 1, Service: dist.NewExponential(mu2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	truth, err := sim.Run(net, rng, sim.Options{Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(rng, 0.3)

	srv := New(StreamConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := NewClient(ts.URL)
	ctx := context.Background()

	// MinTasks = tasks: the first visit sees the complete window, so the
	// mean-field snapshot stands alone for the full StEM + posterior run
	// that follows — tens of milliseconds the watcher below cannot miss.
	cfg := StreamConfig{
		NumQueues: truth.NumQueues, WindowTasks: tasks, MinTasks: tasks,
		EMIters: 250, PostSweeps: 30, Windows: 4,
	}
	if err := c.CreateStream(ctx, "tandem", cfg); err != nil {
		t.Fatal(err)
	}

	// Watch for the cold stream's first snapshot from inside the process:
	// it must come from the mean-field fast path, not a Gibbs publish. The
	// fast path only fires while the estimate atom is still nil, so a
	// mean-field backend on the first non-nil load proves it published
	// first; a Gibbs backend here means the fast path lost or never ran.
	st := srv.lookup("tandem")
	firstCh := make(chan *Estimate, 1)
	go func() {
		deadline := time.Now().Add(90 * time.Second)
		for time.Now().Before(deadline) {
			if est := st.estimate.Load(); est != nil {
				firstCh <- est
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		firstCh <- nil
	}()

	stats, err := Replay(ctx, c, truth, ReplayOptions{Stream: "tandem", Batch: 200})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 0 {
		t.Fatalf("replay rejected %d events", stats.Rejected)
	}
	if stats.Tasks != tasks || stats.Accepted != stats.Events {
		t.Fatalf("replay stats %+v", stats)
	}

	wctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	if _, err := c.WaitForEpoch(wctx, "tandem", tasks); err != nil {
		t.Fatal(err)
	}

	first := <-firstCh
	if first == nil {
		t.Fatal("no estimate observed")
	}
	if first.Backend != BackendMeanField {
		t.Fatalf("first snapshot backend = %q, want %q", first.Backend, BackendMeanField)
	}
	if first.Seq != 1 {
		t.Fatalf("first snapshot seq = %d, want 1 (the fast path publishes before any sweep-derived estimate)", first.Seq)
	}

	// Refinement lands: the snapshot flips to the Gibbs backend at full
	// coverage, and the fast path's divergence gauge turns finite.
	var est *Estimate
	waitFor(t, 90*time.Second, "snapshot refined by gibbs", func() bool {
		est = st.estimate.Load()
		return est != nil && est.Backend == BackendGibbs && est.Epoch >= tasks
	})
	if est.WindowTasks != tasks {
		t.Fatalf("estimate window %d tasks, want %d", est.WindowTasks, tasks)
	}
	for q, g := range st.m.divergence {
		if math.IsNaN(g.Value()) {
			t.Errorf("divergence gauge for queue %d still NaN after both backends published", q+1)
		}
	}
	if srv.metrics.publishedMeanField.Value() == 0 || srv.metrics.publishedGibbs.Value() == 0 {
		t.Errorf("backend publish counters: meanfield=%d gibbs=%d, want both > 0",
			srv.metrics.publishedMeanField.Value(), srv.metrics.publishedGibbs.Value())
	}

	checkWithin := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s = %.4f, want within %.0f%% of %.4f", name, got, tol*100, want)
		}
	}
	checkWithin("λ̂", est.Lambda, lambda, 0.25)
	checkWithin("µ̂_1", est.Rates[1], mu1, 0.25)
	checkWithin("µ̂_2", est.Rates[2], mu2, 0.25)

	// Mean service follows 1/µ; the posterior pass must agree with the
	// rates to the same tolerance.
	checkWithin("mean service q1", float64(est.MeanService[1]), 1/mu1, 0.25)
	checkWithin("mean service q2", float64(est.MeanService[2]), 1/mu2, 0.25)

	// The windowed snapshot is published alongside the estimate.
	ws, err := c.Windows(ctx, "tandem")
	if err != nil {
		t.Fatal(err)
	}
	if ws.Epoch != est.Epoch || len(ws.Queues) != truth.NumQueues || len(ws.Queues[1]) != cfg.Windows {
		t.Fatalf("windows snapshot shape: epoch=%d queues=%d buckets=%d", ws.Epoch, len(ws.Queues), len(ws.Queues[1]))
	}
	totalEvents := 0
	for _, cell := range ws.Queues[1] {
		totalEvents += cell.Events
	}
	if totalEvents == 0 {
		t.Error("windowed snapshot has no events at queue 1")
	}

	// Counters reflect the run.
	if got := st.m.TasksSealed.Value(); got != tasks {
		t.Errorf("tasks_sealed=%d, want %d", got, tasks)
	}
	if st.m.Estimates.Value() == 0 || st.m.SweepsRun.Value() == 0 {
		t.Error("estimate counters not advanced")
	}
}

// TestEndToEndTandemReplayParallel replays a smaller tandem trace through
// a stream created with the raw JSON a client of the retired parallel
// engine sends ("workers": 4, "interval_ms": 50), plus a "window_sweeps".
// All three fields are gone from StreamConfig and the decoder ignores
// them, so the stream must run the one warm path end to end and serve the
// same answers. Under -race it stays in the daemon-level race gate (the
// name matches its "Parallel" pattern).
func TestEndToEndTandemReplayParallel(t *testing.T) {
	const (
		lambda  = 4.0
		mu1     = 12.0
		mu2     = 9.0
		tasks   = 300
		windows = 4
	)
	net, err := qnet.Tiered(dist.NewExponential(lambda), []qnet.TierSpec{
		{Name: "app", Replicas: 1, Service: dist.NewExponential(mu1)},
		{Name: "db", Replicas: 1, Service: dist.NewExponential(mu2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(24)
	truth, err := sim.Run(net, rng, sim.Options{Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(rng, 0.3)

	srv := New(StreamConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := NewClient(ts.URL)
	ctx := context.Background()

	legacy := fmt.Sprintf(`{"num_queues":%d,"window_tasks":%d,"min_tasks":50,"interval_ms":50,`+
		`"em_iters":150,"post_sweeps":20,"windows":%d,"window_sweeps":10,"workers":4}`,
		truth.NumQueues, tasks, windows)
	if rec := putRaw(srv, "tandem-par", legacy); rec.Code != http.StatusCreated {
		t.Fatalf("legacy PUT: HTTP %d %s", rec.Code, rec.Body)
	}
	stats, err := Replay(ctx, c, truth, ReplayOptions{Stream: "tandem-par", Batch: 150})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 0 {
		t.Fatalf("replay rejected %d events", stats.Rejected)
	}

	wctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	est, err := c.WaitForEpoch(wctx, "tandem-par", tasks)
	if err != nil {
		t.Fatal(err)
	}
	checkWithin := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s = %.4f, want within %.0f%% of %.4f", name, got, tol*100, want)
		}
	}
	checkWithin("λ̂", est.Lambda, lambda, 0.3)
	checkWithin("µ̂_1", est.Rates[1], mu1, 0.3)
	checkWithin("µ̂_2", est.Rates[2], mu2, 0.3)

	ws, err := c.Windows(ctx, "tandem-par")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Queues) != truth.NumQueues || len(ws.Queues[1]) != windows {
		t.Fatalf("windows snapshot shape: queues=%d buckets=%d", len(ws.Queues), len(ws.Queues[1]))
	}
}

// putRaw PUTs body verbatim to stream id through the real handler.
func putRaw(srv *Server, id, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPut, "/v1/streams/"+id, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}
