// Live: the paper's §5.2 workflow on genuinely *measured* data, served
// through the qserved daemon. A real three-tier HTTP application (load
// balancer → web servers with FIFO worker stations → database server) runs
// in this process for a few seconds under Poisson load; its wall-clock
// instrumentation is assembled into a trace and masked to 25% observation.
// Instead of calling the estimator directly, the example then does what a
// production deployment would: it starts an in-process qserved instance,
// replays the masked trace through the HTTP ingest API at 10x speed, polls
// the estimate endpoint until the posterior covers every replayed task,
// and compares the served estimates against the full measurements.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro"
	"repro/internal/livedemo"
	"repro/internal/serve"
)

func main() {
	cfg := livedemo.DefaultConfig()
	cfg.Requests = 400
	cfg.Rate = 80
	cfg.Weights = []float64{1, 1, 0.05} // web2 is starved, like the paper's outlier

	fmt.Printf("driving %d real HTTP requests at %.0f/s through %d web servers + db...\n",
		cfg.Requests, cfg.Rate, cfg.WebServers)
	start := time.Now()
	es, names, st, err := livedemo.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured %d events in %.1fs (timestamp repairs: %d, max adjust %.3gms)\n\n",
		len(es.Events), time.Since(start).Seconds(), st.Repairs, st.MaxAdjust*1000)

	working := es.Clone()
	working.ObserveTasks(queueinf.NewRNG(5), 0.25)

	// Stand up a real qserved instance on a loopback port.
	srv := serve.New(serve.StreamConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("qserved listening on %s\n", baseURL)

	ctx := context.Background()
	client := serve.NewClient(baseURL)
	streamCfg := serve.StreamConfig{
		NumQueues: working.NumQueues, WindowTasks: working.NumTasks,
		MinTasks: 50, EMIters: 600, PostSweeps: 40,
	}
	if err := client.CreateStream(ctx, "live", streamCfg); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replaying the masked trace at 10x speed...\n")
	stats, err := serve.Replay(ctx, client, working, serve.ReplayOptions{
		Stream: "live", Speed: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sent %d events in %d batches over %.1fs (%d rejected)\n\n",
		stats.Events, stats.Batches, stats.Duration.Seconds(), stats.Rejected)

	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	est, err := client.WaitForEpoch(wctx, "live", uint64(stats.Tasks))
	if err != nil {
		log.Fatal(err)
	}

	full := es.MeanServiceByQueue()
	fmt.Printf("served estimate: seq %d, window %d tasks, λ̂ = %.2f/s, staleness %.0fms\n\n",
		est.Seq, est.WindowTasks, est.Lambda, est.StalenessMS)
	fmt.Printf("%-6s  %-8s  %-24s  %-10s\n", "queue", "requests", "mean service est/meas (ms)", "mean wait (ms)")
	for q := 1; q < es.NumQueues; q++ {
		marker := "  "
		if q == est.Bottleneck {
			marker = "->"
		}
		fmt.Printf("%s %-5s %-8d  %9.2f / %-9.2f     %8.2f\n",
			marker, names[q], len(es.ByQueue[q]),
			float64(est.MeanService[q])*1000, full[q]*1000, float64(est.MeanWait[q])*1000)
	}
	fmt.Printf("\nconfigured means: web %.1fms, db %.1fms — estimates from 25%% of a real\n",
		cfg.WebMean.Seconds()*1000, cfg.DBMean.Seconds()*1000)
	fmt.Println("HTTP trace, served over the daemon's ingest + estimate API;")
	fmt.Printf("the starved %s, with only %d requests, is the unstable outlier.\n",
		names[cfg.WebServers], len(es.ByQueue[cfg.WebServers]))

	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Print(err)
	}
	srv.Close()
}
