package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/qnet"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// slideBodies simulates the paper's three-tier network {1,2,4} (λ = 4,
// µ = 5) at an observed fraction and cuts its tasks, in entry order, into
// NDJSON bodies: one of window tasks, then slides bodies of slide tasks
// each. Every task's events are contiguous and its last one seals it, so
// the store seals the tasks in body order.
func slideBodies(t *testing.T, seed uint64, frac float64, window, slides, slide int) [][]byte {
	t.Helper()
	net, err := qnet.PaperSynthetic(4, 5, [3]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(seed)
	es, err := sim.Run(net, r, sim.Options{Tasks: window + slides*slide})
	if err != nil {
		t.Fatal(err)
	}
	es.ObserveTasks(r, frac)
	body := func(lo, hi int) []byte {
		var evs []IngestEvent
		for k := lo; k < hi; k++ {
			ids := es.ByTask[k]
			for j, id := range ids[1:] {
				e := &es.Events[id]
				evs = append(evs, IngestEvent{Task: "t" + strconv.Itoa(k), State: e.State, Queue: e.Queue,
					Arrival: es.Arr[id], Depart: es.Dep[id], ObsArrival: e.ObsArrival, ObsDepart: e.ObsDepart,
					Final: j == len(ids)-2})
			}
		}
		b, err := AppendEvents(nil, evs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	out := [][]byte{body(0, window)}
	for s := 0; s < slides; s++ {
		lo := window + s*slide
		out = append(out, body(lo, lo+slide))
	}
	return out
}

// postAndCover posts body to the stream through the real handler and waits
// until a Gibbs estimate covers the stream's first `tasks` sealed tasks.
// Posting the next body only then makes the daemon's slide sequence
// deterministic: the worker syncs its window once per body.
func postAndCover(t *testing.T, srv *Server, id string, body []byte, tasks uint64) *Estimate {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/events", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", id, rec.Code, rec.Body.String())
	}
	var est *Estimate
	waitFor(t, 30*time.Second, "an estimate covering the body", func() bool {
		est = srv.lookup(id).estimate.Load()
		return est != nil && est.Epoch >= tasks && est.Backend == BackendGibbs
	})
	return est
}

// TestEstimateReportsStEMSchedule: a Gibbs estimate says which StEM
// schedule made it. The first epoch is cold, so it reports EMIters
// iterations and their post-burn-in count as its weight; after a one-task
// slide the epoch is warm, with fewer iterations and at least that weight.
// Mean-field estimates carry neither field.
func TestEstimateReportsStEMSchedule(t *testing.T) {
	srv := New(StreamConfig{}, WithInferenceWorkers(1))
	defer srv.Close()
	cfg := StreamConfig{NumQueues: 8, WindowTasks: 100, MinTasks: 20, EMIters: 100, PostSweeps: 10}
	execPut(t, srv, "s", cfg)
	bodies := slideBodies(t, 3, 0.3, 100, 2, 1)

	est := postAndCover(t, srv, "s", bodies[0], 100)
	if est.EMIters != 100 || est.EMWeight != 50 {
		t.Fatalf("cold epoch: em_iters %d, em_weight %v; want 100 and 50", est.EMIters, est.EMWeight)
	}
	for i, body := range bodies[1:] {
		est = postAndCover(t, srv, "s", body, uint64(101+i))
		if est.EMIters >= 100 || est.EMWeight < 50 {
			t.Fatalf("warm epoch %d: em_iters %d, em_weight %v; want < 100 and >= 50", i+1, est.EMIters, est.EMWeight)
		}
	}

	b, err := json.Marshal(&Estimate{Backend: BackendMeanField})
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); strings.Contains(s, "em_iters") || strings.Contains(s, "em_weight") {
		t.Fatalf("mean-field estimate carries the StEM schedule: %s", s)
	}
}

// TestExecutorRebuildRebasesEpoch: a body larger than the window after a
// first epoch, as on the ingest workload, makes the worker rebuild the
// window (the store can no longer hand it the delta). The rebuild keeps
// the stream's finished StEM average, so the next epoch runs rebased:
// min(30, EMIters/2) iterations of burn-in, then the cold epoch's
// EMIters/2 kept, which is its weight.
func TestExecutorRebuildRebasesEpoch(t *testing.T) {
	srv := New(StreamConfig{}, WithInferenceWorkers(1))
	defer srv.Close()
	const window, emIters = 100, 100
	execPut(t, srv, "r", StreamConfig{NumQueues: 8, WindowTasks: window, MinTasks: 20, EMIters: emIters, PostSweeps: 10})
	bodies := slideBodies(t, 3, 0.3, window, 1, window+50)

	est := postAndCover(t, srv, "r", bodies[0], window)
	if est.EMIters != emIters || est.EMWeight != emIters/2 {
		t.Fatalf("first epoch: em_iters %d, em_weight %v; want %d and %d", est.EMIters, est.EMWeight, emIters, emIters/2)
	}
	est = postAndCover(t, srv, "r", bodies[1], 2*window+50)
	if got := srv.metrics.rebuilds.Value(); got != 1 {
		t.Fatalf("qserved_inference_rebuilds_total = %d, want 1", got)
	}
	if want := min(30, emIters/2) + emIters/2; est.EMIters != want || est.EMWeight != emIters/2 {
		t.Fatalf("epoch after the rebuild: em_iters %d, em_weight %v; want %d and %d", est.EMIters, est.EMWeight, want, emIters/2)
	}
}

// TestInfeasibleSlideCounted: the seeded slide sequence of the three-tier
// network (a 300-task window, then twelve 10-task slides at 30% observed)
// is feasible data, and it slides without a single infeasible task or
// rebuild. A body whose observed departures cross at one queue cannot be
// made feasible by any latent times: its second task is counted once on
// qserved_slide_infeasible_total and logged with the stream id, the window
// is not rebuilt, and the stream keeps publishing Gibbs estimates over
// the bodies that follow.
func TestInfeasibleSlideCounted(t *testing.T) {
	const seed, frac, window, slides, slide = 6, 0.3, 300, 12, 10
	srv := New(StreamConfig{}, WithInferenceWorkers(1))
	defer srv.Close()
	var logBuf logBuffer
	srv.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	execPut(t, srv, "inf", StreamConfig{NumQueues: 8, WindowTasks: window, MinTasks: 20})
	for i, body := range slideBodies(t, seed, frac, window, slides, slide) {
		postAndCover(t, srv, "inf", body, uint64(window+i*slide))
	}
	if infeasible, rebuilds := srv.metrics.slideInfeasible.Value(), srv.metrics.rebuilds.Value(); infeasible != 0 || rebuilds != 0 {
		t.Fatalf("feasible slides: qserved_slide_infeasible_total = %d, qserved_inference_rebuilds_total = %d; want 0 and 0",
			infeasible, rebuilds)
	}

	// Single-hop tasks after every simulated one, fully observed at queue
	// 1: y arrives after x but departs before it, which FIFO forbids.
	hop := func(task string, arr, dep float64) IngestEvent {
		return IngestEvent{Task: task, Queue: 1, Arrival: arr, Depart: dep, ObsArrival: true, ObsDepart: true, Final: true}
	}
	sealed := uint64(window + slides*slide)
	for _, evs := range [][]IngestEvent{
		{hop("x", 1000, 1010), hop("y", 1001, 1005)},
		{hop("z", 1020, 1030)},
	} {
		body, err := AppendEvents(nil, evs)
		if err != nil {
			t.Fatal(err)
		}
		sealed += uint64(len(evs))
		postAndCover(t, srv, "inf", body, sealed)
		if got := srv.metrics.slideInfeasible.Value(); got != 1 {
			t.Errorf("after %d sealed tasks: qserved_slide_infeasible_total = %d, want 1", sealed, got)
		}
		if got := srv.metrics.rebuilds.Value(); got != 0 {
			t.Errorf("after %d sealed tasks: qserved_inference_rebuilds_total = %d, want 0", sealed, got)
		}
	}
	if s := logBuf.String(); strings.Count(s, "infeasible slide") != 1 || !strings.Contains(s, "stream=inf") {
		t.Errorf("want one infeasible-slide log line naming the stream in:\n%s", s)
	}
}

// logBuffer is a bytes.Buffer safe for the daemon's concurrent log writes.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
