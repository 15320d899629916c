package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// newDurableServer opens a WAL-backed server over dir with per-batch fsync
// and no periodic snapshots (tests trigger snapshotAll explicitly so the
// snapshot/replay split is deterministic).
func newDurableServer(t *testing.T, dir string) (*Server, *Client, *httptest.Server) {
	t.Helper()
	srv, err := NewDurable(StreamConfig{}, WALConfig{
		Dir:              dir,
		Sync:             wal.SyncBatch,
		SnapshotInterval: -1,
		SegmentBytes:     16 << 10, // small segments so the test exercises rotation
	})
	if err != nil {
		t.Fatalf("NewDurable(%s): %v", dir, err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, NewClient(ts.URL), ts
}

// tornTail appends garbage to the newest segment of every shard log, as a
// crash mid-write would: recovery must truncate it, not refuse to start.
func tornTail(t *testing.T, dir string) {
	t.Helper()
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard dirs under %s (err %v)", dir, err)
	}
	torn := 0
	for _, sd := range shards {
		segs, err := filepath.Glob(filepath.Join(sd, "seg-*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 {
			continue
		}
		sort.Strings(segs)
		f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		// "garb" decodes as a ~1.6 GB length prefix, far over the record
		// cap, so the scanner treats the whole suffix as a torn write.
		if _, err := f.Write([]byte("garbage, not a frame")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		torn++
	}
	if torn == 0 {
		t.Fatal("no segment files found to tear")
	}
}

// TestCrashRecoveryE2E is the durability oracle: a durable server ingests
// half a workload, snapshots, ingests more, then hard-stops without the
// shutdown snapshot (and with garbage torn onto every log tail). A second
// server recovered from the same directory must finish the workload and end
// with byte-for-byte the windows and posterior draws of an in-memory server
// that saw the whole workload uninterrupted.
func TestCrashRecoveryE2E(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	const (
		numQueues = 3
		hops      = 3
		bodies    = 8
		tasksPer  = 25
		crashAt   = 5 // bodies ingested before the crash
		snapAt    = 3 // bodies ingested before the snapshot
	)
	type bodyCase struct {
		payload []byte
		events  int
	}
	var work []bodyCase
	for i := 0; i < bodies; i++ {
		b, n := ingestTestBody(t, "rec"+string(rune('a'+i)), tasksPer, hops, numQueues)
		work = append(work, bodyCase{b, n})
	}

	cfgOracle := StreamConfig{NumQueues: numQueues, WindowTasks: 500, MinTasks: 500}
	cfgLive := StreamConfig{NumQueues: numQueues, WindowTasks: 500, MinTasks: 10,
		EMIters: 30, PostSweeps: 5}

	// Phase 1: durable server A ingests the pre-crash prefix.
	srvA, cA, tsA := newDurableServer(t, dir)
	if err := cA.CreateStream(ctx, "rec-oracle", cfgOracle); err != nil {
		t.Fatal(err)
	}
	if err := cA.CreateStream(ctx, "rec-live", cfgLive); err != nil {
		t.Fatal(err)
	}
	sumsA := make([]*IngestSummary, crashAt)
	for i := 0; i < crashAt; i++ {
		if i == snapAt {
			srvA.snapshotAll()
		}
		var err error
		if sumsA[i], err = cA.PostNDJSON(ctx, "rec-oracle", work[i].payload); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if _, err := cA.PostNDJSON(ctx, "rec-live", work[i].payload); err != nil {
			t.Fatalf("live body %d: %v", i, err)
		}
	}
	// Let rec-live publish an estimate so the snapshot-restore path for
	// estimates is exercised too.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	estA, err := cA.WaitForEpoch(wctx, "rec-live", uint64(crashAt*tasksPer))
	cancel()
	if err != nil {
		t.Fatalf("pre-crash estimate: %v", err)
	}
	srvA.snapshotAll() // capture the estimate; post-snapshot state is log-only

	tsA.Close()
	srvA.crashForTest()
	tornTail(t, dir)

	// Phase 2: recover server B from the directory and finish the workload.
	srvB, cB, tsB := newDurableServer(t, dir)
	t.Cleanup(func() { tsB.Close(); srvB.Close() })

	if est := srvB.lookup("rec-live").estimate.Load(); est == nil {
		t.Fatal("restored stream published no estimate from snapshot")
	} else if est.Seq < estA.Seq {
		t.Fatalf("restored estimate seq %d < pre-crash seq %d", est.Seq, estA.Seq)
	}

	sumsB := make([]*IngestSummary, bodies)
	for i := crashAt; i < bodies; i++ {
		var err error
		if sumsB[i], err = cB.PostNDJSON(ctx, "rec-oracle", work[i].payload); err != nil {
			t.Fatalf("post-recovery body %d: %v", i, err)
		}
		if _, err := cB.PostNDJSON(ctx, "rec-live", work[i].payload); err != nil {
			t.Fatalf("post-recovery live body %d: %v", i, err)
		}
	}

	// Reference: an in-memory server sees the whole workload uninterrupted.
	srvRef, cRef := newTestServer(t)
	if err := cRef.CreateStream(ctx, "rec-oracle", cfgOracle); err != nil {
		t.Fatal(err)
	}
	sumsRef := make([]*IngestSummary, bodies)
	for i := 0; i < bodies; i++ {
		var err error
		if sumsRef[i], err = cRef.PostNDJSON(ctx, "rec-oracle", work[i].payload); err != nil {
			t.Fatal(err)
		}
	}

	// Per-body summaries must agree: pre-crash against server A, post-crash
	// against the recovered server B (batching is deterministic either way).
	for i := 0; i < bodies; i++ {
		got := sumsB[i]
		if i < crashAt {
			got = sumsA[i]
		}
		if !reflect.DeepEqual(got, sumsRef[i]) {
			t.Fatalf("body %d summary: durable %+v vs reference %+v", i, got, sumsRef[i])
		}
	}

	// The oracle from TestIngestBatchEquivalence: identical window event
	// sets, identical posterior draws under a fixed RNG.
	esB, epochB := windowOf(t, srvB.lookup("rec-oracle").store)
	esRef, epochRef := windowOf(t, srvRef.lookup("rec-oracle").store)
	if epochB != epochRef {
		t.Fatalf("epoch mismatch after recovery: %d vs %d", epochB, epochRef)
	}
	if !reflect.DeepEqual(esB, esRef) {
		t.Fatal("recovered window event set differs from uninterrupted reference")
	}
	params, err := core.NewParams([]float64{4, 10, 9})
	if err != nil {
		t.Fatal(err)
	}
	postB, err := core.Posterior(esB, params, xrand.New(7), core.PosteriorOptions{Sweeps: 12})
	if err != nil {
		t.Fatal(err)
	}
	postRef, err := core.Posterior(esRef, params, xrand.New(7), core.PosteriorOptions{Sweeps: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(postB.MeanService, postRef.MeanService) ||
		!reflect.DeepEqual(postB.MeanWait, postRef.MeanWait) {
		t.Fatalf("posterior differs after recovery:\n recovered svc %v wait %v\n reference svc %v wait %v",
			postB.MeanService, postB.MeanWait, postRef.MeanService, postRef.MeanWait)
	}

	// The live stream keeps estimating over the full workload.
	wctx, cancel = context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := cB.WaitForEpoch(wctx, "rec-live", uint64(bodies*tasksPer)); err != nil {
		t.Fatalf("post-recovery estimate: %v", err)
	}
}

// TestRecoveryIdempotentRestart restarts a durable directory twice with no
// writes in between: the second recovery must see exactly the state the
// first one did (replay skips nothing and duplicates nothing).
func TestRecoveryIdempotentRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srvA, cA, tsA := newDurableServer(t, dir)
	cfg := StreamConfig{NumQueues: 3, WindowTasks: 200, MinTasks: 200}
	if err := cA.CreateStream(ctx, "idem", cfg); err != nil {
		t.Fatal(err)
	}
	body, _ := ingestTestBody(t, "idem", 30, 3, 3)
	if _, err := cA.PostNDJSON(ctx, "idem", body); err != nil {
		t.Fatal(err)
	}
	srvA.snapshotAll()
	if _, err := cA.PostNDJSON(ctx, "idem", body); err != nil { // dup tasks reject deterministically
		t.Fatal(err)
	}
	tsA.Close()
	srvA.crashForTest()

	srvB, _, tsB := newDurableServer(t, dir)
	esB, epochB := windowOf(t, srvB.lookup("idem").store)
	tsB.Close()
	srvB.Close() // graceful: final snapshot, clean logs

	srvC, _, tsC := newDurableServer(t, dir)
	t.Cleanup(func() { tsC.Close(); srvC.Close() })
	esC, epochC := windowOf(t, srvC.lookup("idem").store)
	if epochB != epochC {
		t.Fatalf("epoch drifted across restarts: %d vs %d", epochB, epochC)
	}
	if !reflect.DeepEqual(esB, esC) {
		t.Fatal("window event set drifted across restarts")
	}
}

// TestRecoveryLegacyConfigRecord recovers a WAL whose stream-creation
// record still carries the retired "workers" and "interval_ms" fields, as
// a log written before they were removed does. Recovery must decode it
// (unknown fields are ignored) into the config a fresh PUT of the same
// JSON yields, and the recovered stream must serve estimates.
func TestRecoveryLegacyConfigRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const id = "legacy"
	// Every field set, as the daemon logs a config after applying defaults.
	legacy := `{"num_queues":3,"window_tasks":200,"min_tasks":20,"interval_ms":50,"em_iters":30,` +
		`"post_sweeps":5,"windows":6,"window_sweeps":30,"workers":4,"seed":1}`

	srvA, _, tsA := newDurableServer(t, dir)
	l := srvA.wal.logs[shardIndex(id)]
	if _, err := l.Append(append(appendRecordHeader(nil, walRecConfig, id), legacy...)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	srvA.crashForTest()

	srvB, cB, tsB := newDurableServer(t, dir)
	t.Cleanup(func() { tsB.Close(); srvB.Close() })
	st := srvB.lookup(id)
	if st == nil {
		t.Fatal("stream not recovered from its legacy config record")
	}
	want := StreamConfig{NumQueues: 3, WindowTasks: 200, MinTasks: 20, EMIters: 30, PostSweeps: 5}.withDefaults()
	if st.cfg != want {
		t.Fatalf("recovered config %+v, want %+v", st.cfg, want)
	}
	if rec := putRaw(srvB, id, legacy); rec.Code != http.StatusOK {
		t.Fatalf("re-PUT of the legacy config: HTTP %d %s, want 200 (same config)", rec.Code, rec.Body)
	}
	const tasks = 60
	body, _ := ingestTestBody(t, id, tasks, 3, 3)
	if _, err := cB.PostNDJSON(ctx, id, body); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := cB.WaitForEpoch(wctx, id, tasks); err != nil {
		t.Fatalf("recovered stream does not serve: %v", err)
	}
}
