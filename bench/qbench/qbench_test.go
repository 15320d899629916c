package main

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestWeightedQuantile(t *testing.T) {
	var s samples
	s.add(10, 1)
	s.add(1, 8)
	s.add(5, 1)
	if got := s.quantile(0.5); got != 1 {
		t.Fatalf("median = %v, want 1", got)
	}
	if got := s.quantile(0.9); got != 5 {
		t.Fatalf("p90 = %v, want 5", got)
	}
	if got := s.quantile(1); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {6, 7}, {9, 20}}
	if got := covered(iv, 1, 10); got != 3+3+1 { // [1,4) + [5,8) + [9,10)
		t.Fatalf("covered = %d, want 7", got)
	}
}

// TestSmoke runs every workload at a tiny scale against a real qserved
// process, traced, and checks that the run is correct, that every metric
// BENCHMARK.json declares is emitted with its unit, and that the driver
// never opens more than its two connections.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts qserved processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin, err := buildDaemon(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Windows stay at 500 tasks, the size the gate's tolerances assume.
	tiny := map[string]workload{
		"fleet":     {streams: 3, window: 500, rate: 2},
		"bigwin":    {window: 500},
		"ingest":    {streams: 2, window: 500, batch: 1024},
		"coldstart": {window: 500},
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, qbench runs %d", len(bf.Workloads), len(workloads))
	}
	for _, d := range bf.Workloads {
		w, err := workloadByName(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		small, s := *w, tiny[w.name]
		small.window = s.window
		if s.streams > 0 {
			small.streams = s.streams
		}
		if s.rate > 0 {
			small.rate = s.rate
		}
		if s.batch > 0 {
			small.batch = s.batch
		}
		res, err := execute(ctx, config{w: &small, seed: 1, measure: time.Second, traced: true,
			setups: 1, drain: 5 * time.Second, bin: bin, tmp: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d: %v", w.name, res.Correct, res.Failed, res.Failures)
		}
		if res.MaxConns > 2 {
			t.Errorf("%s: %d connections, want at most 2", w.name, res.MaxConns)
		}
		checkLine(t, w.name, res, false, bf.EndToEnd)
		checkLine(t, w.name, res, true, bf.PerLayer)
	}
}

// checkLine checks that the contract line of res in the given mode holds
// exactly the declared metrics, each finite and with its declared unit.
func checkLine(t *testing.T, name string, res *result, traced bool, want []declared) {
	t.Helper()
	view := *res
	view.Traced = traced
	b, err := view.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Errorf("%s: incomplete result line %s", name, b)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(line.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := line.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", name, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", name, d.Name, m.Value)
		}
	}
}
