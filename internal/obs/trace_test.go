package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(64)
	if got := tr.StartRoot(); got != 0 {
		t.Fatalf("sampling off: StartRoot = %d, want 0", got)
	}
	if got := tr.Child(0); got != 0 {
		t.Fatalf("Child(0) = %d, want 0", got)
	}

	tr.SetSampleEvery(2)
	sampled := 0
	for i := 0; i < 10; i++ {
		if tr.StartRoot() != 0 {
			sampled++
		}
	}
	if sampled != 5 {
		t.Fatalf("sample-every-2: %d of 10 roots sampled, want 5", sampled)
	}

	tr.SetSampleEvery(1)
	root := tr.StartRoot()
	if root == 0 {
		t.Fatal("sample-every-1: StartRoot = 0")
	}
	child := tr.Child(root)
	if child == 0 || child == root {
		t.Fatalf("Child(%d) = %d, want a fresh nonzero id", root, child)
	}

	// A nil tracer behaves as sampling-off everywhere.
	var nilT *Tracer
	nilT.SetSampleEvery(1)
	if nilT.StartRoot() != 0 || nilT.Child(7) != 0 || nilT.Cap() != 0 {
		t.Fatal("nil Tracer must act as sampling off")
	}
	nilT.Record(Span{ID: 1})
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(100) // rounds up to 128
	if tr.Cap() != 128 {
		t.Fatalf("Cap() = %d, want 128 (power-of-two round-up)", tr.Cap())
	}
	tr.SetSampleEvery(1)
	const total = 3 * 128
	for i := 0; i < total; i++ {
		id := tr.StartRoot()
		tr.Record(Span{ID: id, Kind: "k", StartNS: int64(i), EndNS: int64(i) + 1})
	}
	if got := tr.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	spans := tr.Snapshot(0)
	if len(spans) != 128 {
		t.Fatalf("Snapshot kept %d spans, want ring cap 128", len(spans))
	}
	// The retained spans are the newest 128, in chronological order.
	for i, sp := range spans {
		want := int64(total - 128 + i)
		if sp.StartNS != want {
			t.Fatalf("span %d: StartNS = %d, want %d (newest retained, oldest first)", i, sp.StartNS, want)
		}
	}
	if got := tr.Snapshot(10); len(got) != 10 {
		t.Fatalf("Snapshot(10) returned %d spans", len(got))
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(64)
	tr.SetSampleEvery(1)
	root := tr.StartRoot()
	tr.Record(Span{ID: root, Kind: "ingest", Stream: "web", StartNS: 100, EndNS: 200})
	child := tr.Child(root)
	tr.Record(Span{ID: child, Parent: root, Kind: "sweep", Stream: "web", StartNS: 120, EndNS: 180})

	var buf bytes.Buffer
	n, err := tr.WriteJSONL(&buf, 0)
	if err != nil || n != 2 {
		t.Fatalf("WriteJSONL = (%d, %v), want (2, nil)", n, err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Span
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, sp)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d lines, want 2", len(got))
	}
	if got[0].ID != root || got[0].Parent != 0 || got[0].Kind != "ingest" || got[0].Stream != "web" {
		t.Fatalf("root span round-trip mismatch: %+v", got[0])
	}
	if got[1].ID != child || got[1].Parent != root || got[1].Kind != "sweep" {
		t.Fatalf("child span round-trip mismatch: %+v", got[1])
	}
}

// TestTracerParallelRecord hammers Record from many goroutines while a
// reader snapshots concurrently — the lock-free ring's race-detector gate.
func TestTracerParallelRecord(t *testing.T) {
	tr := NewTracer(256)
	tr.SetSampleEvery(1)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range tr.Snapshot(64) {
				if sp.ID == 0 {
					t.Error("snapshot surfaced a zero-id span")
					return
				}
			}
		}
	}()
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				root := tr.StartRoot()
				tr.Record(Span{ID: root, Kind: "w", Stream: fmt.Sprintf("s%d", g), StartNS: int64(i), EndNS: int64(i) + 1})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := tr.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d", got, writers*perWriter)
	}
}
