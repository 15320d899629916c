package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := New(StreamConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, NewClient(ts.URL)
}

func TestStreamLifecycleAndErrors(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	// Ingest before creation: 404.
	if _, err := c.PostEvents(ctx, "nope", []IngestEvent{{Task: "a", Queue: 1, Depart: 1}}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("ingest to unknown stream: %v", err)
	}
	// Bad config: q0 alone is not a network.
	if err := c.CreateStream(ctx, "bad", StreamConfig{NumQueues: 1}); err == nil {
		t.Fatal("num_queues=1 accepted")
	}
	cfg := StreamConfig{NumQueues: 3, WindowTasks: 50, MinTasks: 5, EMIters: 40, PostSweeps: 10}
	if err := c.CreateStream(ctx, "s", cfg); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-create with the same config; conflict with another.
	if err := c.CreateStream(ctx, "s", cfg); err != nil {
		t.Fatalf("idempotent re-create: %v", err)
	}
	if err := c.CreateStream(ctx, "s", StreamConfig{NumQueues: 4}); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Fatalf("conflicting re-create: %v", err)
	}
	// No estimate yet: ErrNotReady.
	if _, err := c.Estimate(ctx, "s"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("estimate before data: %v", err)
	}
	if _, err := c.Windows(ctx, "s"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("windows before data: %v", err)
	}
}

func TestIngestMixedValidity(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	if err := c.CreateStream(ctx, "s", StreamConfig{NumQueues: 2}); err != nil {
		t.Fatal(err)
	}
	sum, err := c.PostEvents(ctx, "s", []IngestEvent{
		{Task: "a", Queue: 1, Arrival: 1, Depart: 2, Final: true},
		{Task: "b", Queue: 9, Arrival: 1, Depart: 2}, // bad queue
		{Task: "c", Queue: 1, Arrival: 3, Depart: 4, Final: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accepted != 2 || sum.Rejected != 1 || sum.SealedTasks != 2 {
		t.Fatalf("summary %+v, want accepted=2 rejected=1 sealed=2", sum)
	}
	if len(sum.Errors) == 0 || !strings.Contains(sum.Errors[0], "out of range") {
		t.Fatalf("errors %v", sum.Errors)
	}
	// All-invalid body: HTTP 400.
	if _, err := c.PostEvents(ctx, "s", []IngestEvent{{Task: "d", Queue: 5, Arrival: 0, Depart: 1}}); err == nil {
		t.Fatal("all-invalid ingest should 400")
	}
	st := srv.lookup("s")
	if got := st.m.EventsIngested.Value(); got != 2 {
		t.Errorf("events_ingested=%d, want 2", got)
	}
	if got := st.m.EventsRejected.Value(); got != 2 {
		t.Errorf("events_rejected=%d, want 2", got)
	}
}

func TestVarzAndHealthEndpoints(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if err := c.CreateStream(ctx, "s", StreamConfig{NumQueues: 2}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/varz", "/debug/vars", "/healthz", "/v1/streams"} {
		var out map[string]any
		if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if len(out) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
	var vars map[string]any
	if err := c.do(ctx, http.MethodGet, "/varz", nil, &vars); err != nil {
		t.Fatal(err)
	}
	streams, ok := vars["streams"].(map[string]any)
	if !ok || streams["s"] == nil {
		t.Fatalf("varz missing stream block: %v", vars)
	}
	block := streams["s"].(map[string]any)
	for _, key := range []string{"events_ingested", "events_rejected", "tasks_sealed", "sweeps_run", "estimates", "window_tasks"} {
		if _, ok := block[key]; !ok {
			t.Errorf("varz stream block missing %q", key)
		}
	}
}

// TestConcurrentIngestAndServe hammers one stream from many goroutines
// while readers poll every endpoint — the -race exercise for the
// store/worker/snapshot machinery.
func TestConcurrentIngestAndServe(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	cfg := StreamConfig{
		NumQueues: 3, WindowTasks: 200, MinTasks: 10,
		EMIters: 30, PostSweeps: 8, Windows: 3,
	}
	if err := c.CreateStream(ctx, "hot", cfg); err != nil {
		t.Fatal(err)
	}
	const writers, tasksPer = 4, 30
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < tasksPer; i++ {
				at := float64(wr*tasksPer+i) * 0.05
				evs := []IngestEvent{
					{Task: fmt.Sprintf("w%d-%d", wr, i), Queue: 1, Arrival: at, Depart: at + 0.01, ObsArrival: true},
					{Task: fmt.Sprintf("w%d-%d", wr, i), Queue: 2, Arrival: at + 0.01, Depart: at + 0.02, ObsArrival: true, ObsDepart: true, Final: true},
				}
				if _, err := c.PostEvents(ctx, "hot", evs); err != nil {
					t.Errorf("post: %v", err)
					return
				}
			}
		}(wr)
	}
	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				c.Estimate(ctx, "hot")
				c.Windows(ctx, "hot")
				var out map[string]any
				c.do(ctx, http.MethodGet, "/varz", nil, &out)
			}
		}()
	}
	wg.Wait()
	// All tasks sealed; wait for the estimator to cover them.
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	est, err := c.WaitForEpoch(wctx, "hot", writers*tasksPer)
	close(stopRead)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if est.WindowTasks != writers*tasksPer {
		t.Errorf("window tasks %d, want %d (nothing slid off)", est.WindowTasks, writers*tasksPer)
	}
	if est.Lambda <= 0 {
		t.Errorf("lambda %v", est.Lambda)
	}
	srv.Close() // drains workers; idempotent with the cleanup
	if got := srv.metrics.estimates.Value(); got == 0 {
		t.Error("daemon recorded no estimates")
	}
}
