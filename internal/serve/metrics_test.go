package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/qnet"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// startEstimatingServer runs a daemon, replays a small tandem trace into
// stream "m", and waits until an estimate is published, so scrapes see
// every instrument populated (latency histograms, per-queue gauges).
func startEstimatingServer(t *testing.T) (*Server, string) {
	t.Helper()
	net, err := qnet.Tiered(dist.NewExponential(5), []qnet.TierSpec{
		{Name: "app", Replicas: 1, Service: dist.NewExponential(12)},
		{Name: "db", Replicas: 1, Service: dist.NewExponential(9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	truth, err := sim.Run(net, rng, sim.Options{Tasks: 80})
	if err != nil {
		t.Fatal(err)
	}
	truth.ObserveTasks(rng, 0.3)

	srv := New(StreamConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := NewClient(ts.URL)
	ctx := context.Background()
	cfg := StreamConfig{
		NumQueues: truth.NumQueues, WindowTasks: 200, MinTasks: 20,
		EMIters: 40, PostSweeps: 12, Windows: 2, WindowSweeps: 6,
	}
	if err := c.CreateStream(ctx, "m", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(ctx, c, truth, ReplayOptions{Stream: "m", Batch: 100}); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.WaitForEpoch(wctx, "m", 80); err != nil {
		t.Fatal(err)
	}
	return srv, ts.URL
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestMetricsEndpoint checks that GET /metrics is valid Prometheus text
// exposition: every line parses, the required families are present with
// TYPE lines, and every histogram's cumulative buckets are monotone and
// consistent with its _count.
func TestMetricsEndpoint(t *testing.T) {
	_, base := startEstimatingServer(t)
	body := get(t, base+"/metrics")

	types := map[string]string{}
	samples := map[string]float64{}
	var order []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("malformed comment line: %q", line)
			}
			if fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = val
		order = append(order, key)
	}

	for fam, typ := range map[string]string{
		"qserved_ingest_request_seconds":       "histogram",
		"qserved_estimate_seconds":             "histogram",
		"qserved_sweep_seconds":                "histogram",
		"qserved_estimates_total":              "counter",
		"qserved_stream_events_ingested_total": "counter",
		"qserved_queue_ess":                    "gauge",
		"qserved_queue_rhat":                   "gauge",
		"qserved_queue_mean_wait_seconds":      "gauge",
		"qserved_stream_window_tasks":          "gauge",
		"qserved_uptime_seconds":               "gauge",
	} {
		if types[fam] != typ {
			t.Errorf("family %s: TYPE %q, want %q", fam, types[fam], typ)
		}
	}

	// Populated after one estimate: latency histograms have observations,
	// per-queue diagnostics are finite.
	for _, fam := range []string{"qserved_ingest_request_seconds", "qserved_estimate_seconds", "qserved_sweep_seconds"} {
		if samples[fam+"_count"] == 0 {
			t.Errorf("%s_count = 0, want > 0", fam)
		}
	}
	for q := 1; q <= 2; q++ {
		key := `qserved_queue_ess{queue="` + strconv.Itoa(q) + `",stream="m"}`
		if v := samples[key]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", key, v)
		}
	}

	// Histogram checks: cumulative monotone buckets, +Inf bucket == _count.
	buckets := map[string][]float64{} // series prefix -> cumulative counts in order
	infs := map[string]float64{}
	for _, key := range order {
		i := strings.Index(key, `le="`)
		if i < 0 {
			continue
		}
		j := strings.Index(key[i+4:], `"`)
		le := key[i+4 : i+4+j]
		series := key[:i] + key[i+4+j+1:]              // drop the le pair
		series = strings.Replace(series, `,}`, `}`, 1) // comma left when le followed other labels
		if le == "+Inf" {
			infs[series] = samples[key]
		}
		buckets[series] = append(buckets[series], samples[key])
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for series, cum := range buckets {
		if !sort.Float64sAreSorted(cum) {
			t.Errorf("series %s: buckets not monotone: %v", series, cum)
		}
		count := strings.Replace(series, "_bucket", "_count", 1)
		count = strings.Replace(count, "{}", "", 1)
		if samples[count] != infs[series] {
			t.Errorf("series %s: +Inf bucket %v != %s %v", series, infs[series], count, samples[count])
		}
	}
}

// TestMetricsJSONEndpoint checks the expvar-style JSON view of the same
// registry.
func TestMetricsJSONEndpoint(t *testing.T) {
	_, base := startEstimatingServer(t)
	var doc map[string]any
	if err := json.Unmarshal([]byte(get(t, base+"/metrics.json")), &doc); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	if v, ok := doc[`qserved_stream_events_ingested_total{stream="m"}`]; !ok {
		t.Error("stream counter missing from metrics.json")
	} else if f, ok := v.(float64); !ok || f == 0 {
		t.Errorf("stream counter = %v, want > 0", v)
	}
	hist, ok := doc["qserved_estimate_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("estimate histogram missing or wrong shape: %T", doc["qserved_estimate_seconds"])
	}
	if c, _ := hist["count"].(float64); c == 0 {
		t.Error("estimate histogram count = 0")
	}
}

// TestMetricsParallelScrape hammers ingest while concurrently scraping
// /metrics, /metrics.json, and /varz; the race detector (the verify gate
// runs this with -race) catches any unsynchronized scrape path, and the
// reused /varz maps must still serve a consistent document.
func TestMetricsParallelScrape(t *testing.T) {
	srv, base := startEstimatingServer(t)
	ctx := context.Background()
	c := NewClient(base)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ev := IngestEvent{
					Task:    "p" + strconv.Itoa(g) + "-" + strconv.Itoa(i),
					Queue:   1,
					Arrival: 1e6 + float64(i),
					Depart:  1e6 + float64(i) + 0.5,
					Final:   true,
				}
				if _, err := c.PostEvents(ctx, "m", []IngestEvent{ev}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(g)
	}
	for _, path := range []string{"/metrics", "/metrics.json", "/varz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				body := get(t, base+path)
				if path != "/metrics" {
					var doc map[string]any
					if err := json.Unmarshal([]byte(body), &doc); err != nil {
						t.Errorf("%s scrape %d does not parse: %v", path, i, err)
						return
					}
				}
			}
		}(path)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if srv.Totals().EventsIngested == 0 {
		t.Error("no events ingested during scrape storm")
	}
}
