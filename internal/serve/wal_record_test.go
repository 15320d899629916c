package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/wal"
)

// walEventRecords reads back every 'E' record of stream id from the shard
// log under dir, in log order, with the record header stripped. The server
// that wrote dir must be stopped.
func walEventRecords(t *testing.T, dir, id string) [][]byte {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%02d", shardIndex(id))), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var recs [][]byte
	err = l.Replay(func(lsn uint64, rec []byte) error {
		kind, rid, rest, err := decodeRecordHeader(rec)
		if err != nil {
			return err
		}
		if kind == walRecEvents && rid == id {
			recs = append(recs, append([]byte(nil), rest...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestWALRecordCanonicalBytes pins the log format for canonical clients:
// an 'E' record holds the batch's lines as received, and for a body
// encoded by AppendEvents those are exactly trace.AppendWireEvent's
// re-encoding of each decoded event — the format the log had when records
// were re-encoded. Logs written either way therefore replay alike.
func TestWALRecordCanonicalBytes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const id = "canon"
	body, n := simIngestBody(t, id, 300, 4, 4, 5)
	if n >= ingestChunk {
		t.Fatalf("body of %d events spans more than one batch", n)
	}

	srv, c, ts := newDurableServer(t, dir)
	if err := c.CreateStream(ctx, id, StreamConfig{NumQueues: 4, WindowTasks: 500, MinTasks: 500}); err != nil {
		t.Fatal(err)
	}
	if sum, err := c.PostNDJSON(ctx, id, body); err != nil || sum.Accepted != n {
		t.Fatalf("post: %+v, %v", sum, err)
	}
	ts.Close()
	srv.crashForTest()

	var want []byte
	for _, ln := range bytes.SplitAfter(body, []byte("\n")) {
		if len(ln) == 0 {
			continue
		}
		var w IngestEvent
		if err := json.Unmarshal(ln, &w); err != nil {
			t.Fatal(err)
		}
		var err error
		if want, err = trace.AppendWireEvent(want, &w); err != nil {
			t.Fatal(err)
		}
	}
	recs := walEventRecords(t, dir, id)
	if len(recs) != 1 {
		t.Fatalf("%d event records, want 1", len(recs))
	}
	if !bytes.Equal(recs[0], want) {
		t.Fatalf("record payload (%d bytes) differs from the canonical re-encoding (%d bytes)", len(recs[0]), len(want))
	}
}

// nonCanonicalBody is a valid ingest body in none of AppendWireEvent's
// form: padding, reordered keys, null fields, escaped task ids, unknown
// fields, upper-case exponents, negative zero, mantissas of 20+ digits,
// CRLF line ends, a path-order reject (logged, and re-rejected on replay),
// a stateless reject (not logged) and a task left open.
var nonCanonicalBody = strings.Join([]string{
	`  { "task" : "pad" , "queue" : 1 , "arrival" : 0.5 , "depart" : 1.25 , "obs_arrival" : true }  `,
	"{\"task\":\"pad\",\"queue\":2,\"arrival\":1.25,\"depart\":2,\"final\":true}\r",
	`{"final":false,"depart":3.5,"arrival":1,"queue":1,"task":"reord"}`,
	`{"depart":4,"final":true,"queue":2,"arrival":3.5,"task":"reord","state":1}`,
	`{"task":"nulls","state":null,"queue":1,"arrival":2,"depart":2.5,"obs_arrival":null,"obs_depart":null,"final":null}`,
	`{"task":"nulls","queue":2,"arrival":2.5,"depart":3,"final":true,"task":null}`,
	`{"task":"escaped\"id","queue":1,"arrival":1E2,"depart":1.005E+2}`,
	`{"task":"escaped\"id","queue":2,"arrival":100.5,"depart":101,"final":true}`,
	`{"task":"unk","queue":1,"arrival":-0,"depart":0.75,"extra":{"a":[1,2.5e300]},"Note":"x"}`,
	"{\"task\":\"unk\",\"queue\":2,\"arrival\":0.75,\"depart\":1,\"obs_depart\":true,\"final\":true}\r",
	`{"task":"long","queue":1,"arrival":1.0000000000000000000001,"depart":2.00000000000000000000000000001}`,
	`{"task":"long","queue":2,"arrival":2.00000000000000000000000000001,"depart":345678901234567890123456e-23,"final":true}`,
	`{"task":"sim","queue":1,"arrival":1.2345678901234567e+01,"depart":13.098765432109876,"obs_depart":true}`,
	`{"task":"sim","queue":3,"arrival":13.098765432109876,"depart":14.000000000000002,"final":true}`,
	`{"task":"bad","queue":1,"arrival":3,"depart":4}`,
	`{"task":"bad","queue":2,"arrival":4.5,"depart":5,"final":true}`,
	`{"task":"stateless-reject","queue":9,"arrival":0,"depart":1}`,
	`{"task":"open","queue":1,"arrival":5,"depart":6.000000000000001}`,
}, "\n") + "\n"

// TestWALRecoveryNonCanonicalLines is the other half of the log-format
// contract: whatever valid form the lines arrive in, a durable server
// that logs them as received, crashes and recovers ends with a store
// bit-identical to an in-memory server fed the same body.
func TestWALRecoveryNonCanonicalLines(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const id = "noncanon"
	cfg := StreamConfig{NumQueues: 4, WindowTasks: 100, MinTasks: 100}
	body := []byte(nonCanonicalBody)

	srvA, cA, tsA := newDurableServer(t, dir)
	if err := cA.CreateStream(ctx, id, cfg); err != nil {
		t.Fatal(err)
	}
	sumA, err := cA.PostNDJSON(ctx, id, body)
	if err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	srvA.crashForTest()

	// The log holds the accepted lines verbatim (CR stripped), so the
	// padded and unknown-field lines are there byte for byte.
	recs := walEventRecords(t, dir, id)
	if len(recs) == 0 || !bytes.Contains(recs[0], []byte(`"extra":{"a":[1,2.5e300]},"Note":"x"}`+"\n")) ||
		!bytes.Contains(recs[0], []byte(`"obs_arrival" : true }  `+"\n")) {
		t.Fatalf("event records do not carry the lines as received: %q", recs)
	}

	srvB, _, tsB := newDurableServer(t, dir)
	t.Cleanup(func() { tsB.Close(); srvB.Close() })

	srvRef, cRef := newTestServer(t)
	if err := cRef.CreateStream(ctx, id, cfg); err != nil {
		t.Fatal(err)
	}
	sumRef, err := cRef.PostNDJSON(ctx, id, body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sumA, sumRef) {
		t.Fatalf("summaries differ: durable %+v, in-memory %+v", sumA, sumRef)
	}
	if sumRef.Accepted != 16 || sumRef.Rejected != 2 || sumRef.SealedTasks != 7 {
		t.Fatalf("in-memory summary %+v, want 16 accepted, 2 rejected, 7 sealed", sumRef)
	}

	// JSON keeps the sign of zero and every float bit, so equal snapshot
	// bytes mean bit-identical stores (the applied LSN is 0 in memory).
	snapJSON := func(s *store) []byte {
		sn := s.snapshot()
		sn.AppliedLSN = 0
		b, err := json.Marshal(&sn)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got, want := snapJSON(srvB.lookup(id).store), snapJSON(srvRef.lookup(id).store)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered store differs from the in-memory one:\n recovered %s\n in-memory %s", got, want)
	}
	if !bytes.Contains(want, []byte(`"a":-0,`)) {
		t.Fatalf("negative zero arrival lost from the store: %s", want)
	}
}
