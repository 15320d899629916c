package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseExposition splits Prometheus text output into sample lines and
// comment lines, failing on anything malformed (a line must be
// `name[{labels}] value`).
func parseExposition(t *testing.T, text string) (samples map[string]float64, helps, types map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	helps = make(map[string]string)
	types = make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed HELP line %q", line)
			}
			helps[name] = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[name] = typ
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:i], line[i+1:]
		var v float64
		switch valStr {
		case "NaN":
			v = math.NaN()
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		default:
			var err error
			v, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("sample line %q: bad value: %v", line, err)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
	}
	return samples, helps, types
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.", L("kind", "read"))
	c2 := r.Counter("test_ops_total", "Operations.", L("kind", "write"))
	g := r.Gauge("test_depth", "Queue depth.")
	f := r.FloatGauge("test_rhat", "Split R-hat.", L("queue", "1"))
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})

	c.Add(3)
	c2.Inc()
	g.Set(-7)
	f.Set(1.02)
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, helps, types := parseExposition(t, buf.String())

	for name, wantType := range map[string]string{
		"test_ops_total":       "counter",
		"test_depth":           "gauge",
		"test_rhat":            "gauge",
		"test_uptime_seconds":  "gauge",
		"test_latency_seconds": "histogram",
	} {
		if types[name] != wantType {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], wantType)
		}
		if helps[name] == "" {
			t.Errorf("missing HELP for %s", name)
		}
	}
	for key, want := range map[string]float64{
		`test_ops_total{kind="read"}`:            3,
		`test_ops_total{kind="write"}`:           1,
		`test_depth`:                             -7,
		`test_rhat{queue="1"}`:                   1.02,
		`test_uptime_seconds`:                    12.5,
		`test_latency_seconds_bucket{le="0.01"}`: 2, // 0.005 and 0.01 (le is inclusive)
		`test_latency_seconds_bucket{le="0.1"}`:  3,
		`test_latency_seconds_bucket{le="1"}`:    4,
		`test_latency_seconds_bucket{le="+Inf"}`: 5,
		`test_latency_seconds_count`:             5,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if got := samples[`test_latency_seconds_sum`]; math.Abs(got-2.565) > 1e-12 {
		t.Errorf("histogram sum %v, want 2.565", got)
	}
}

// TestHistogramBucketMonotonicity checks that cumulative bucket counts are
// non-decreasing in le order and end at the total count, under a spread of
// values including ones outside the bucket range.
func TestHistogramBucketMonotonicity(t *testing.T) {
	h := newHistogram(ExpBuckets(0.001, 2, 12))
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%997) * 0.00001)
	}
	h.Observe(1e9) // beyond the last bound: +Inf bucket
	h.Observe(-1)  // below the first bound: first bucket
	cum := make([]uint64, len(h.Bounds())+1)
	total := h.Cumulative(cum)
	if total != h.Count() || total != 1002 {
		t.Fatalf("total %d, Count %d, want 1002", total, h.Count())
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts not monotone at %d: %v", i, cum)
		}
	}
	if cum[len(cum)-1] != total {
		t.Fatalf("last cumulative %d != total %d", cum[len(cum)-1], total)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_total", "c").Add(9)
	r.FloatGauge("j_gauge", "g").Set(math.NaN())
	r.Histogram("j_hist", "h", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("JSON view is not valid JSON: %v\n%s", err, buf.String())
	}
	if out["j_total"] != float64(9) {
		t.Errorf("j_total = %v", out["j_total"])
	}
	if out["j_gauge"] != "NaN" {
		t.Errorf("NaN gauge = %v, want the string \"NaN\"", out["j_gauge"])
	}
	hist, ok := out["j_hist"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Errorf("j_hist = %v", out["j_hist"])
	}
}

// TestRegistryParallelScrape races concurrent updates against concurrent
// scrapes of both formats; run under -race it pins the lock-free update
// contract.
func TestRegistryParallelScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "c")
	f := r.FloatGauge("race_gauge", "g")
	h := r.Histogram("race_seconds", "h", LatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				f.Set(float64(i))
				h.Observe(float64(i) * 1e-5)
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				buf.Reset()
				if err := r.WriteJSON(&buf); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter %d, histogram %d, want 8000", c.Value(), h.Count())
	}
	cum := make([]uint64, len(h.Bounds())+1)
	if total := h.Cumulative(cum); total != 8000 {
		t.Fatalf("cumulative total %d, want 8000", total)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "c", L("a", "1"))
	mustPanic("duplicate name+labels", func() { r.Counter("dup_total", "c", L("a", "1")) })
	mustPanic("type mismatch", func() { r.Gauge("dup_total", "c", L("a", "2")) })
	mustPanic("bad metric name", func() { r.Counter("bad name", "c") })
	mustPanic("bad label name", func() { r.Counter("ok_total", "c", L("0bad", "v")) })
	mustPanic("unsorted buckets", func() { r.Histogram("h_x", "h", []float64{2, 1}) })
	mustPanic("empty buckets", func() { r.Histogram("h_y", "h", nil) })
	// Distinct labels under one family are fine.
	r.Counter("dup_total", "c", L("a", "2"))
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(0.5, 3, 4)
	want := []float64{0.5, 1.5, 4.5, 13.5}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", exp, want)
		}
	}
	lin := LinearBuckets(10, 5, 3)
	if lin[0] != 10 || lin[1] != 15 || lin[2] != 20 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
}

func TestManifestRoundtrip(t *testing.T) {
	m := NewManifest("qtest", []string{"-flag", "v"})
	m.Seed = 42
	m.Config = map[string]int{"iters": 10}
	time.Sleep(time.Millisecond)
	m.Finish(map[string]float64{"lambda": 3.1})
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if back.Tool != "qtest" || back.Seed != 42 || back.GoVersion == "" {
		t.Errorf("roundtrip lost fields: %+v", back)
	}
	if back.ElapsedMS <= 0 || !back.FinishedAt.After(back.StartedAt) {
		t.Errorf("timing not stamped: elapsed=%v", back.ElapsedMS)
	}
}
