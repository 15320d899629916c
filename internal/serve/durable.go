package serve

// Durable event store: NewDurable wires a per-registry-shard write-ahead
// log (internal/wal) under the ingest data plane. Every accepted event
// batch is appended to its shard's log — as the NDJSON lines it arrived
// as, which replay decodes with the same DecodeEventLine — before it is
// applied to the store, and every stream creation logs its config the
// same way. Periodic per-shard snapshots capture exact store state plus
// the published estimate/window snapshots; recovery is snapshot +
// log-suffix replay through the same batched-apply path, reproducing the
// pre-crash stores bit for bit.
//
// What is NOT durable: the estimation workers' RNG and warm-start state.
// After a restart a stream serves its last published estimate unchanged,
// and the next estimation pass starts from a fresh (deterministically
// seeded) sampler — so post-restart estimates are fresh draws over the
// bit-identical window, not a continuation of the pre-crash chain.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// WALConfig configures NewDurable.
type WALConfig struct {
	// Dir is the WAL root directory; one subdirectory per registry shard
	// is created beneath it.
	Dir string
	// Sync is the fsync policy (default wal.SyncBatch: one group-commit
	// fsync before every ingest response).
	Sync wal.SyncPolicy
	// SyncInterval is the wal.SyncInterval ticker period (default 100ms).
	SyncInterval time.Duration
	// SnapshotInterval is how often stream state is snapshotted and the
	// logs compacted (default 30s; < 0 disables the periodic pass — a
	// final snapshot is still written at Close).
	SnapshotInterval time.Duration
	// SegmentBytes overrides the segment rotation size (mainly for tests).
	SegmentBytes int64
}

// Record kinds: 'C' carries a stream's StreamConfig JSON, 'E' a batch of
// NDJSON event lines, each terminated by '\n'. Both are prefixed with the
// stream id.
const (
	walRecConfig byte = 'C'
	walRecEvents byte = 'E'
)

// walAppend tells store.appendBatch to write-ahead the batch: rec is the
// encoded record, log the stream's shard log. When the ingest request is
// trace-sampled, tr/root/stream are set and appendBatch records a
// wal.append span under the request root.
type walAppend struct {
	log    *wal.Log
	rec    []byte
	tr     *obs.Tracer
	root   uint64
	stream string
}

func appendRecordHeader(dst []byte, kind byte, id string) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	return append(dst, id...)
}

// appendEventRecord encodes one applied batch as a WAL record: header plus
// every event's line as received, each followed by '\n', so replay runs
// the same bytes through the same DecodeEventLine. Canonical clients
// (AppendEvents) send exactly trace.AppendWireEvent's lines, so for them
// the record is the canonical re-encoding of the batch, byte for byte.
func appendEventRecord(dst []byte, id string, batch []batchEvent) []byte {
	dst = appendRecordHeader(dst, walRecEvents, id)
	for i := range batch {
		dst = append(dst, batch[i].raw...)
		dst = append(dst, '\n')
	}
	return dst
}

func decodeRecordHeader(rec []byte) (kind byte, id string, rest []byte, err error) {
	if len(rec) < 2 {
		return 0, "", nil, fmt.Errorf("serve: wal record of %d bytes", len(rec))
	}
	kind = rec[0]
	n, sz := binary.Uvarint(rec[1:])
	if sz <= 0 || n > uint64(len(rec)-1-sz) {
		return 0, "", nil, fmt.Errorf("serve: wal record with bad stream id length")
	}
	idStart := 1 + sz
	id = string(rec[idStart : idStart+int(n)])
	return kind, id, rec[idStart+int(n):], nil
}

// streamSnap / shardSnapshot are the JSON payload of one per-shard
// snapshot file: full store state plus the published estimate and window
// snapshots, so a restarted daemon serves the same answers it did before.
type streamSnap struct {
	ID       string           `json:"id"`
	Config   StreamConfig     `json:"config"`
	Store    storeSnap        `json:"store"`
	Estimate *Estimate        `json:"estimate,omitempty"`
	Windows  *WindowsSnapshot `json:"windows,omitempty"`
}

type shardSnapshot struct {
	Streams []streamSnap `json:"streams"`
}

type walMetrics struct {
	appendRecords   *obs.Counter
	appendBytes     *obs.Counter
	fsyncSeconds    *obs.Histogram
	snapshots       *obs.Counter
	snapshotErrors  *obs.Counter
	recoverySeconds *obs.FloatGauge
}

// serveWAL is the durable half of a Server: the per-shard logs, their
// instruments, and the snapshot loop.
type serveWAL struct {
	cfg  WALConfig
	logs [numStreamShards]*wal.Log
	m    walMetrics

	recBufs sync.Pool // *[]byte record-encode buffers

	// lastSnapshotUnixNano feeds the snapshot-age gauge (0 = none yet).
	lastSnapshotUnixNano atomic.Int64

	stopC chan struct{} // snapshot loop shutdown
	doneC chan struct{}
}

// NewDurable returns a running Server whose stream state survives a
// crash: accepted event batches and stream creations are appended to a
// per-shard write-ahead log under cfg.Dir before they are applied,
// periodic snapshots bound recovery time and log size, and startup
// recovery reproduces the pre-crash stores, estimates, and window
// snapshots exactly (minus whatever the chosen sync policy legitimately
// lets a crash lose).
func NewDurable(defaults StreamConfig, wcfg WALConfig, serverOpts ...Option) (*Server, error) {
	s := New(defaults, serverOpts...)
	// /readyz answers 503 until recovery has replayed every shard and the
	// restored streams are registered with the executor.
	s.recovering.Store(true)
	w := &serveWAL{cfg: wcfg}
	s.wal = w

	reg := s.metrics.reg
	w.m = walMetrics{
		appendRecords: reg.Counter("qserved_wal_append_records_total",
			"Records appended to the write-ahead logs."),
		appendBytes: reg.Counter("qserved_wal_append_bytes_total",
			"Record payload bytes appended to the write-ahead logs."),
		fsyncSeconds: reg.Histogram("qserved_wal_fsync_seconds",
			"Latency of WAL fsync calls.", obs.LatencyBuckets()),
		snapshots: reg.Counter("qserved_wal_snapshots_total",
			"Per-shard WAL snapshots written."),
		snapshotErrors: reg.Counter("qserved_wal_snapshot_errors_total",
			"Per-shard WAL snapshot attempts that failed."),
		recoverySeconds: reg.FloatGauge("qserved_wal_recovery_seconds",
			"Wall time of WAL recovery at startup."),
	}
	reg.GaugeFunc("qserved_wal_segments",
		"Live WAL segment files across all shards.",
		func() float64 {
			n := 0
			for _, l := range w.logs {
				if l != nil {
					n += l.SegmentCount()
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("qserved_wal_last_snapshot_age_seconds",
		"Seconds since the last completed snapshot pass (NaN before the first).",
		func() float64 {
			at := w.lastSnapshotUnixNano.Load()
			if at == 0 {
				return math.NaN()
			}
			return time.Since(time.Unix(0, at)).Seconds()
		})
	reg.GaugeFunc("qserved_wal_truncated_tail_bytes",
		"Bytes cut from torn segment tails during recovery.",
		func() float64 {
			var n uint64
			for _, l := range w.logs {
				if l != nil {
					n += l.TruncatedTailBytes()
				}
			}
			return float64(n)
		})

	fail := func(err error) (*Server, error) {
		s.wal = nil
		for _, l := range w.logs {
			if l != nil {
				l.Close()
			}
		}
		s.Close()
		return nil, err
	}

	opts := wal.Options{
		Policy:       wcfg.Sync,
		Interval:     wcfg.SyncInterval,
		SegmentBytes: wcfg.SegmentBytes,
		OnFsync:      func(d time.Duration) { w.m.fsyncSeconds.Observe(d.Seconds()) },
	}
	t0 := time.Now()
	for i := range w.logs {
		l, err := wal.Open(filepath.Join(wcfg.Dir, fmt.Sprintf("shard-%02d", i)), opts)
		if err != nil {
			return fail(err)
		}
		w.logs[i] = l
	}
	for i := range w.logs {
		if err := s.recoverShard(i); err != nil {
			return fail(fmt.Errorf("serve: recovering wal shard %d: %w", i, err))
		}
	}
	// Streams register with the executor only after every shard has
	// replayed, seeded from the restored estimates so the published seq
	// sequence continues.
	s.registry.forEach(func(st *stream) { s.exec.register(st) })
	w.m.recoverySeconds.Set(time.Since(t0).Seconds())
	s.recovering.Store(false)

	if wcfg.SnapshotInterval >= 0 {
		iv := wcfg.SnapshotInterval
		if iv == 0 {
			iv = 30 * time.Second
		}
		w.stopC = make(chan struct{})
		w.doneC = make(chan struct{})
		go s.snapshotLoop(iv)
	}
	return s, nil
}

// recoverShard restores registry shard i from its latest readable snapshot
// and replays the log suffix through the same batched-apply path ingest
// uses. No HTTP traffic exists yet, but the executor's scanner is already
// iterating the registry, so the shard is write-locked for the duration
// of its restore.
func (s *Server) recoverShard(i int) error {
	l := s.wal.logs[i]
	sh := &s.registry.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	payload, _, ok, err := l.LoadSnapshot()
	if err != nil {
		return err
	}
	if ok {
		var snap shardSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("decoding snapshot: %w", err)
		}
		for si := range snap.Streams {
			ss := &snap.Streams[si]
			st := s.buildStream(ss.ID, ss.Config)
			st.store.restore(&ss.Store)
			if ss.Estimate != nil {
				st.estimate.Store(ss.Estimate)
			}
			if ss.Windows != nil {
				st.windows.Store(ss.Windows)
			}
			sh.m[ss.ID] = st
			s.registry.count.Add(1)
		}
	}

	var batch []batchEvent
	return l.Replay(func(lsn uint64, rec []byte) error {
		kind, id, rest, err := decodeRecordHeader(rec)
		if err != nil {
			return err
		}
		st := sh.m[id]
		switch kind {
		case walRecConfig:
			if st != nil {
				// Already restored from the snapshot, whose applied LSN
				// covers this creation record.
				return nil
			}
			var cfg StreamConfig
			if err := json.Unmarshal(rest, &cfg); err != nil {
				return fmt.Errorf("lsn %d: stream %q config: %w", lsn, id, err)
			}
			st = s.buildStream(id, cfg)
			st.store.appliedLSN = lsn
			sh.m[id] = st
			s.registry.count.Add(1)
		case walRecEvents:
			if st == nil {
				return fmt.Errorf("lsn %d: events for unknown stream %q", lsn, id)
			}
			if lsn <= st.store.appliedLSN {
				return nil // covered by the snapshot
			}
			batch = batch[:0]
			line := 0
			for len(rest) > 0 {
				nl := bytes.IndexByte(rest, '\n')
				if nl < 0 {
					return fmt.Errorf("lsn %d: unterminated event line", lsn)
				}
				ln := rest[:nl]
				rest = rest[nl+1:]
				line++
				batch = append(batch, batchEvent{line: line})
				if err := trace.DecodeEventLine(ln, &batch[len(batch)-1].ev); err != nil {
					return fmt.Errorf("lsn %d line %d: %w", lsn, line, err)
				}
			}
			st.store.applyRecovered(batch, lsn)
		default:
			return fmt.Errorf("lsn %d: unknown record kind %q", lsn, kind)
		}
		return nil
	})
}

// logConfig appends and syncs stream id's config record. Called from
// handleCreate while it holds the registry shard's write lock — a
// concurrent snapshot holds the read lock while computing its compaction
// cutoff, so a creation record can never land below a cutoff.
func (w *serveWAL) logConfig(shard int, id string, cfg StreamConfig) (uint64, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return 0, err
	}
	rec := appendRecordHeader(nil, walRecConfig, id)
	rec = append(rec, cfgJSON...)
	l := w.logs[shard]
	lsn, err := l.Append(rec)
	if err != nil {
		return 0, err
	}
	if err := l.Sync(); err != nil {
		return 0, err
	}
	w.m.appendRecords.Inc()
	w.m.appendBytes.Add(uint64(len(rec)))
	return lsn, nil
}

func (w *serveWAL) getRecBuf() *[]byte {
	bp, _ := w.recBufs.Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 0, 64<<10)
		bp = &b
	}
	return bp
}

func (w *serveWAL) putRecBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	w.recBufs.Put(bp)
}

// snapshotShard writes shard i's current state as a WAL snapshot and
// compacts the shard's log up to the older retained snapshot's cutoff.
// The registry shard's read lock blocks stream creation for the duration;
// each stream's state and applied LSN are captured atomically under its
// store lock, so concurrent ingest only moves that stream's cutoff later
// (the cutoff is the minimum applied LSN, never past an unapplied record).
func (s *Server) snapshotShard(i int) error {
	sh := &s.registry.shards[i]
	l := s.wal.logs[i]
	sh.mu.RLock()
	cutoff := l.AppendedLSN()
	var snap shardSnapshot
	for _, st := range sh.m {
		ss := streamSnap{ID: st.id, Config: st.cfg, Store: st.store.snapshot()}
		ss.Estimate = st.estimate.Load()
		ss.Windows = st.windows.Load()
		if ss.Store.AppliedLSN < cutoff {
			cutoff = ss.Store.AppliedLSN
		}
		snap.Streams = append(snap.Streams, ss)
	}
	sh.mu.RUnlock()
	if len(snap.Streams) == 0 && cutoff == 0 {
		return nil // nothing ever happened on this shard
	}
	sort.Slice(snap.Streams, func(a, b int) bool { return snap.Streams[a].ID < snap.Streams[b].ID })
	payload, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	return l.WriteSnapshot(payload, cutoff)
}

// snapshotAll runs one snapshot pass over every shard.
func (s *Server) snapshotAll() {
	for i := range s.wal.logs {
		if err := s.snapshotShard(i); err != nil {
			s.wal.m.snapshotErrors.Inc()
			s.log.Error("wal snapshot failed", "shard", i, "err", err)
			continue
		}
		s.wal.m.snapshots.Inc()
	}
	s.wal.lastSnapshotUnixNano.Store(time.Now().UnixNano())
}

func (s *Server) snapshotLoop(interval time.Duration) {
	defer close(s.wal.doneC)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.wal.stopC:
			return
		case <-t.C:
			s.snapshotAll()
		}
	}
}

// shutdown is the durable half of Server.Close: stop the snapshot loop,
// write a final snapshot (the next start then recovers with an empty
// replay), and sync+close every log.
func (w *serveWAL) shutdown(s *Server) {
	if w.stopC != nil {
		close(w.stopC)
		<-w.doneC
	}
	s.snapshotAll()
	for _, l := range w.logs {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil {
			s.log.Error("wal close", "err", err)
		}
	}
}

// crashForTest simulates a hard process kill for recovery tests: workers
// stop, but nothing is flushed, fsynced, or snapshotted — buffered WAL
// records are lost exactly as SIGKILL would lose them.
func (s *Server) crashForTest() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.ingestGate.Lock()
		s.ingestGate.Unlock()
		s.cancel()
		s.exec.close()
		if s.wal == nil {
			return
		}
		if s.wal.stopC != nil {
			close(s.wal.stopC)
			<-s.wal.doneC
		}
		for _, l := range s.wal.logs {
			if l != nil {
				l.CloseNoSync()
			}
		}
	})
}
