package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fetchSpans pulls GET /debug/trace and decodes the JSONL body.
func fetchSpans(t *testing.T, base string) []obs.Span {
	t.Helper()
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var spans []obs.Span
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestTraceChainE2E ingests one sampled body into a durable stream and
// reconstructs the complete event-to-estimate chain from a single
// /debug/trace fetch: the ingest root, its batch/WAL/fsync children, and
// the inference-side queue-wait, visit, window, sweep, and publish spans
// the claimed root parents.
func TestTraceChainE2E(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, err := NewDurable(StreamConfig{}, WALConfig{Dir: dir, SnapshotInterval: -1},
		WithTraceSampleEvery(1), WithTraceRing(1024))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := NewClient(ts.URL)

	cfg := StreamConfig{NumQueues: 3, WindowTasks: 100, MinTasks: 5,
		EMIters: 4, PostSweeps: 2}
	if err := c.CreateStream(ctx, "tr", cfg); err != nil {
		t.Fatal(err)
	}
	body, _ := ingestTestBody(t, "tr", 30, 2, cfg.NumQueues)
	if _, err := c.PostNDJSON(ctx, "tr", body); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForEpoch(ctx, "tr", 30); err != nil {
		t.Fatal(err)
	}

	// The publish span lands after the estimate becomes visible, and the
	// visit span that parents it is recorded only when that visit ends;
	// poll the trace until a publish and its visit are both in the ring.
	var spans []obs.Span
	waitFor(t, 30*time.Second, "publish span under a recorded visit in /debug/trace", func() bool {
		spans = fetchSpans(t, ts.URL)
		visits := map[uint64]bool{}
		for _, sp := range spans {
			if sp.Kind == "visit" {
				visits[sp.ID] = true
			}
		}
		for _, sp := range spans {
			if sp.Kind == "publish" && visits[sp.Parent] {
				return true
			}
		}
		return false
	})

	byID := map[uint64]obs.Span{}
	var root obs.Span
	roots := 0
	for _, sp := range spans {
		if sp.ID == 0 {
			t.Fatalf("span with zero id: %+v", sp)
		}
		if sp.StartNS > sp.EndNS {
			t.Errorf("span %s: start %d > end %d", sp.Kind, sp.StartNS, sp.EndNS)
		}
		byID[sp.ID] = sp
		if sp.Kind == "ingest" {
			root, roots = sp, roots+1
		}
	}
	if roots != 1 {
		t.Fatalf("ingest roots = %d, want 1 (one sampled POST)", roots)
	}
	if root.Parent != 0 || root.Stream != "tr" {
		t.Fatalf("malformed root: %+v", root)
	}

	// Spans parented to the root: the ingest-side children plus the
	// queue-wait and visit spans of the claimed chain.
	kindsUnder := func(parent uint64) map[string]int {
		m := map[string]int{}
		for _, sp := range spans {
			if sp.Parent == parent {
				m[sp.Kind]++
			}
		}
		return m
	}
	under := kindsUnder(root.ID)
	for _, kind := range []string{"ingest.batch", "wal.append", "wal.fsync", "queue.wait", "visit"} {
		if under[kind] == 0 {
			t.Errorf("no %q span under the ingest root (have %v)", kind, under)
		}
	}

	// At least one visit of the chain holds the inference-side spans. The
	// chain publishes once or twice: the Gibbs publish that completes (and
	// clears) the claimed root, optionally preceded by the mean-field fast
	// path's instant first publish on the same cold stream.
	publishes, sweeps, windows := 0, 0, 0
	for _, sp := range spans {
		p, ok := byID[sp.Parent]
		if !ok || p.Kind != "visit" {
			continue
		}
		if p.Parent != root.ID {
			t.Errorf("visit %d not under the root: %+v", p.ID, p)
		}
		switch sp.Kind {
		case "publish":
			publishes++
		case "sweep":
			sweeps++
		case "window.slide", "window.rebuild":
			windows++
		}
	}
	if publishes < 1 || publishes > 2 {
		t.Errorf("publish spans under visits = %d, want 1 or 2 (gibbs, plus the optional mean-field first publish)", publishes)
	}
	if sweeps == 0 || windows == 0 {
		t.Errorf("chain incomplete: %d sweep spans, %d window spans", sweeps, windows)
	}

	// ?limit bounds the response; a bad limit is a 400.
	resp, err := http.Get(ts.URL + "/debug/trace?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines++
		}
	}
	resp.Body.Close()
	if lines != 1 {
		t.Errorf("?limit=1 returned %d spans", lines)
	}
	for _, q := range []string{"limit=0", "limit=-3", "limit=x"} {
		resp, err := http.Get(ts.URL + "/debug/trace?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestTraceChainClosesAtCoveringEpoch drives one stream's worker by hand:
// a traced body lands while an epoch over the earlier tasks is in flight.
// The in-flight epoch's publishes must leave the chain open, and the
// publish that closes it must belong to an epoch that began after the
// traced body's apply, so the chain includes the wait for the epoch in
// flight.
func TestTraceChainClosesAtCoveringEpoch(t *testing.T) {
	srv := New(StreamConfig{}, WithTraceSampleEvery(1), WithTraceRing(1024))
	t.Cleanup(srv.Close)
	cfg := StreamConfig{NumQueues: 3, WindowTasks: 100, MinTasks: 5,
		EMIters: 20, PostSweeps: 4, SweepBatch: 3}.withDefaults()
	// A stream the executor does not know: only this test visits it.
	st := srv.buildStream("tr", cfg)
	wk := newWorker(srv, st)
	visit := func() {
		wk.visit(context.Background(), time.Now().Add(time.Minute), time.Now().UnixNano())
	}

	body, _ := ingestTestBody(t, "tr", 60, 2, cfg.NumQueues)
	lines := bytes.SplitAfter(body, []byte("\n"))
	early, late := bytes.Join(lines[:60], nil), bytes.Join(lines[60:], nil) // 30 tasks each
	if _, _, err := srv.ingestTraced(st, early, 0); err != nil {
		t.Fatal(err)
	}
	visit()
	if !wk.epochOpen || wk.epochStart != 30 {
		t.Fatalf("after one visit: epoch open %v from %d, want an open epoch from 30", wk.epochOpen, wk.epochStart)
	}

	root := srv.Tracer().StartRoot()
	if root == 0 {
		t.Fatal("tracing is off")
	}
	if sum, _, err := srv.ingestTraced(st, late, root); err != nil || sum.SealedTasks != 30 {
		t.Fatalf("traced body: %+v, %v", sum, err)
	}
	published := 0
	for wk.epochOpen {
		visit()
		if wk.lastEpoch == 30 {
			published++
		}
	}
	if published == 0 {
		t.Fatal("the in-flight epoch never published")
	}
	if wk.traceRoot != root {
		t.Fatalf("a publish of the epoch from 30 closed the chain of an ingest that reached epoch 60")
	}
	for i := 0; wk.traceRoot != 0; i++ {
		if i == 100 {
			t.Fatal("no publish closed the chain")
		}
		visit()
	}
	// A visit publishes at most once, so the estimate now served is the
	// publish that closed the chain.
	if est := st.estimate.Load(); est == nil || est.Epoch < 60 {
		t.Fatalf("chain closed by a publish of epoch %v, want >= 60", est)
	}

	// The chain's spans: one publish, after the window sync that opened
	// its epoch, and sweeps of the in-flight epoch before that sync.
	spans := srv.Tracer().Snapshot(0)
	visits := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Kind == "visit" && sp.Parent == root {
			visits[sp.ID] = true
		}
	}
	var publishes, syncs []obs.Span
	earlySweeps := 0
	for _, sp := range spans {
		if !visits[sp.Parent] {
			continue
		}
		switch sp.Kind {
		case "publish":
			publishes = append(publishes, sp)
		case "window.slide", "window.rebuild":
			syncs = append(syncs, sp)
		}
	}
	if len(publishes) != 1 || len(syncs) != 1 {
		t.Fatalf("chain has %d publish and %d window spans, want 1 and 1", len(publishes), len(syncs))
	}
	if publishes[0].StartNS < syncs[0].EndNS {
		t.Errorf("chain's publish starts before the window sync of its epoch")
	}
	for _, sp := range spans {
		if sp.Kind == "sweep" && visits[sp.Parent] && sp.EndNS <= syncs[0].StartNS {
			earlySweeps++
		}
	}
	if earlySweeps == 0 {
		t.Errorf("chain holds no sweep of the epoch in flight")
	}
}

// TestFreshnessSLOAccounting pins the exactly-once guarantee: across two
// bodies and however many anytime republications the warm path makes,
// every sealed task's seal→publish latency is recorded exactly once, and
// with a 1ns SLO every one of them breaches (attainment 0).
func TestFreshnessSLOAccounting(t *testing.T) {
	ctx := context.Background()
	srv := New(StreamConfig{}, WithFreshnessSLO(time.Nanosecond))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := NewClient(ts.URL)

	cfg := StreamConfig{NumQueues: 3, WindowTasks: 200, MinTasks: 10,
		EMIters: 4, PostSweeps: 2}
	if err := c.CreateStream(ctx, "f", cfg); err != nil {
		t.Fatal(err)
	}
	body, _ := ingestTestBody(t, "fa", 50, 2, cfg.NumQueues)
	if _, err := c.PostNDJSON(ctx, "f", body); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForEpoch(ctx, "f", 50); err != nil {
		t.Fatal(err)
	}
	m := srv.registry.get("f").m
	waitFor(t, 30*time.Second, "50 freshness observations", func() bool { return m.Freshness.Count() == 50 })

	body2, _ := ingestTestBody(t, "fb", 10, 2, cfg.NumQueues)
	if _, err := c.PostNDJSON(ctx, "f", body2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForEpoch(ctx, "f", 60); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "60 freshness observations", func() bool { return m.Freshness.Count() == 60 })
	if got := m.FreshnessBreach.Value(); got != 60 {
		t.Errorf("breaches = %d, want 60 (1ns SLO breaches every publish)", got)
	}
	if got := m.FreshnessLost.Value(); got != 0 {
		t.Errorf("lost seal times = %d, want 0", got)
	}

	// The exposition carries the histogram, the breach counter, and a
	// zero attainment gauge.
	text := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`qserved_freshness_seconds_count{stream="f"} 60`,
		`qserved_freshness_slo_breach_total{stream="f"} 60`,
		`qserved_freshness_slo_attainment{stream="f"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFreshnessRebuildPath forces the cold-rebuild branch of the warm
// path — one body seals more tasks than the window retains, so the delta
// cannot be reconstructed — and checks freshness accounting stays exact:
// the seal ring (2× window) still covers every newly published epoch.
func TestFreshnessRebuildPath(t *testing.T) {
	ctx := context.Background()
	srv := New(StreamConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := NewClient(ts.URL)

	cfg := StreamConfig{NumQueues: 3, WindowTasks: 64, MinTasks: 10,
		EMIters: 4, PostSweeps: 2}
	if err := c.CreateStream(ctx, "rb", cfg); err != nil {
		t.Fatal(err)
	}
	body, _ := ingestTestBody(t, "ra", 50, 2, cfg.NumQueues)
	if _, err := c.PostNDJSON(ctx, "rb", body); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForEpoch(ctx, "rb", 50); err != nil {
		t.Fatal(err)
	}
	m := srv.registry.get("rb").m
	waitFor(t, 30*time.Second, "50 freshness observations", func() bool { return m.Freshness.Count() == 50 })
	rebuilds0 := srv.metrics.rebuilds.Value()

	// 120 sealed tasks in one body, against a 64-task window: the next
	// sync sees a delta wider than the window and rebuilds cold.
	body2, _ := ingestTestBody(t, "rx", 120, 2, cfg.NumQueues)
	if _, err := c.PostNDJSON(ctx, "rb", body2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForEpoch(ctx, "rb", 170); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "170 freshness observations", func() bool { return m.Freshness.Count() == 170 })
	if got := srv.metrics.rebuilds.Value(); got <= rebuilds0 {
		t.Errorf("rebuilds = %d, want > %d (delta wider than the window must rebuild)", got, rebuilds0)
	}
	if got := m.FreshnessLost.Value(); got != 0 {
		t.Errorf("lost seal times = %d, want 0 (the 2x ring covers a full-window rebuild)", got)
	}
}

// TestReadyzStates walks the readiness lifecycle: ready while serving,
// 503 while (simulated) recovery replays, ready again, and 503 once the
// daemon drains. /healthz stays 200 throughout — liveness is not
// readiness.
func TestReadyzStates(t *testing.T) {
	ctx := context.Background()
	srv := New(StreamConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := NewClient(ts.URL)

	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("Readyz on a serving daemon: %v", err)
	}

	expect503 := func(wantStatus string) {
		t.Helper()
		err := c.Readyz(ctx)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("Readyz = %v, want a 503 APIError", err)
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc["status"] != wantStatus {
			t.Errorf("readyz status = %v, want %q", doc["status"], wantStatus)
		}
		if err := c.Healthz(ctx); err != nil {
			t.Errorf("Healthz while not ready: %v (liveness must stay up)", err)
		}
	}

	srv.recovering.Store(true)
	expect503("recovering")
	srv.recovering.Store(false)
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("Readyz after recovery: %v", err)
	}

	srv.Close()
	expect503("draining")
}

// TestReadyzAfterRecovery checks the durable constructor's handoff: a
// recovered daemon reports ready only once every shard has replayed.
func TestReadyzAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, c, ts := newDurableServer(t, dir)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("Readyz after NewDurable: %v", err)
	}
	if srv.recovering.Load() {
		t.Error("recovering still set after NewDurable returned")
	}
}

// TestExecutorSchedDebug checks GET /debug/sched: the executor's
// configuration and one row per registered stream, ordered by priority,
// with live staleness/EWMA inputs.
func TestExecutorSchedDebug(t *testing.T) {
	ctx := context.Background()
	srv := New(StreamConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := NewClient(ts.URL)

	cfg := StreamConfig{NumQueues: 3, WindowTasks: 100, MinTasks: 5,
		EMIters: 4, PostSweeps: 2}
	for _, id := range []string{"sa", "sb"} {
		if err := c.CreateStream(ctx, id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	body, _ := ingestTestBody(t, "sched", 20, 2, cfg.NumQueues)
	if _, err := c.PostNDJSON(ctx, "sa", body); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForEpoch(ctx, "sa", 20); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/sched")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap SchedSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Workers <= 0 || snap.QueueDepth <= 0 {
		t.Errorf("implausible executor config: %+v", snap)
	}
	if len(snap.Streams) != 2 {
		t.Fatalf("stream rows = %d, want 2", len(snap.Streams))
	}
	valid := map[string]bool{"idle": true, "queued": true, "running": true, "running-dirty": true}
	seen := map[string]*SchedStream{}
	for i := range snap.Streams {
		row := &snap.Streams[i]
		if !valid[row.State] {
			t.Errorf("stream %s: unknown state %q", row.ID, row.State)
		}
		seen[row.ID] = row
	}
	for i := 1; i < len(snap.Streams); i++ {
		if snap.Streams[i-1].Priority < snap.Streams[i].Priority {
			t.Errorf("rows not ordered by priority: %v then %v",
				snap.Streams[i-1].Priority, snap.Streams[i].Priority)
		}
	}
	sa, sb := seen["sa"], seen["sb"]
	if sa == nil || sb == nil {
		t.Fatalf("missing stream rows: %v", seen)
	}
	if sa.Epoch != 20 {
		t.Errorf("sa epoch = %d, want 20", sa.Epoch)
	}
	waitFor(t, 30*time.Second, "sa caught up in /debug/sched", func() bool {
		resp, err := http.Get(ts.URL + "/debug/sched")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s2 SchedSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&s2); err != nil {
			t.Fatal(err)
		}
		for _, row := range s2.Streams {
			if row.ID == "sa" && row.CaughtEpoch == 20 {
				return true
			}
		}
		return false
	})
}
