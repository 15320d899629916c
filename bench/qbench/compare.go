package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// provenance records where a result document was measured.
type provenance struct {
	HostCPUs         int    `json:"host_cpus"`
	DriverGOMAXPROCS int    `json:"driver_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Dirty            *bool  `json:"dirty"` // null outside a git checkout
	Date             string `json:"date"`
}

func provenanceOf(root string) provenance {
	p := provenance{
		HostCPUs:         runtime.NumCPU(),
		DriverGOMAXPROCS: runtime.GOMAXPROCS(0),
		// qserved does not set GOMAXPROCS: it inherits the environment's
		// or, before Go 1.25, the CPU count regardless of any quota.
		DaemonGOMAXPROCS: runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		Commit:           "unknown",
		Date:             time.Now().UTC().Format(time.RFC3339),
	}
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		p.DaemonGOMAXPROCS = n
	}
	// Only the checkout's own .git: git would otherwise search the parent
	// directories and report an enclosing repository.
	git := func(args ...string) ([]byte, error) {
		return exec.Command("git", append([]string{"--git-dir", filepath.Join(root, ".git"), "--work-tree", root}, args...)...).Output()
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := git("status", "--porcelain"); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			p.Dirty = &dirty
		}
	}
	return p
}

// series is one metric × workload over several runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) / median
}

// workloadRuns is every run of one workload.
type workloadRuns struct {
	Metrics     map[string]*series `json:"metrics"`
	Incorrect   int                `json:"incorrect_runs"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedRatio float64            `json:"failed_ratio"`
}

// resultDoc is what -runs writes and -compare reads.
type resultDoc struct {
	Provenance provenance               `json:"provenance"`
	Seconds    float64                  `json:"seconds"`
	Runs       int                      `json:"runs"`
	Seeds      []uint64                 `json:"seeds"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

// runMany runs every selected workload runs times with seeds seed,
// seed+1, ..., alternating the workload order from run to run, and
// reports the median and quartiles of each end-to-end and tail metric.
func runMany(ctx context.Context, w io.Writer, root string, sel []*workload, runs int, seed uint64, out string, cfg func(*workload, uint64, bool) config) error {
	doc := &resultDoc{Provenance: provenanceOf(root), Runs: runs, Workloads: map[string]*workloadRuns{}}
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)
		doc.Seeds = append(doc.Seeds, s)
		for j := range sel {
			wl := sel[j]
			if i%2 == 1 {
				wl = sel[len(sel)-1-j]
			}
			c := cfg(wl, s, false)
			doc.Seconds = c.measure.Seconds()
			res, err := execute(ctx, c)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, s, err)
			}
			res.print(os.Stderr)
			wr := doc.Workloads[wl.name]
			if wr == nil {
				wr = &workloadRuns{Metrics: map[string]*series{}}
				doc.Workloads[wl.name] = wr
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !res.Correct {
				wr.Incorrect++
			}
			for _, m := range recorded() {
				sr := wr.Metrics[m.name]
				if sr == nil {
					sr = &series{Unit: m.unit}
					wr.Metrics[m.name] = sr
				}
				sr.Values = append(sr.Values, res.E2E[m.name])
			}
		}
	}
	incorrect := 0
	for _, wr := range doc.Workloads {
		wr.FailedRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
		incorrect += wr.Incorrect
		for _, sr := range wr.Metrics {
			sr.Q1, sr.Median, sr.Q3 = quartiles(sr.Values)
			sr.Spread = spread(sr.Values)
		}
	}
	printDoc(w, doc, sel)
	if out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed the correctness gate", incorrect)
	}
	return nil
}

func printDoc(w io.Writer, doc *resultDoc, sel []*workload) {
	p := doc.Provenance
	fmt.Fprintf(w, "%d runs × %gs, seeds %v; host_cpus=%d gomaxprocs driver=%d daemon=%d %s commit %s\n",
		doc.Runs, doc.Seconds, doc.Seeds, p.HostCPUs, p.DriverGOMAXPROCS, p.DaemonGOMAXPROCS, p.GoVersion, p.Commit)
	fmt.Fprintf(w, "%-10s %-24s %12s %12s %12s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "unit")
	for _, wl := range sel {
		wr := doc.Workloads[wl.name]
		if wr == nil {
			continue
		}
		for i, m := range recorded() {
			sr := wr.Metrics[m.name]
			note := ""
			if i >= len(e2eMetrics) {
				note = " (unbounded)"
			}
			fmt.Fprintf(w, "%-10s %-24s %12.4f %12.4f %12.4f %7.1f%%  %s%s\n", wl.name, m.name, sr.Q1, sr.Median, sr.Q3, 100*sr.Spread, sr.Unit, note)
		}
		fmt.Fprintf(w, "%-10s %-24s %12.6f   (%d failed of %d operations, %d incorrect runs)\n",
			wl.name, "failed_ratio", wr.FailedRatio, wr.Failed, wr.Attempted, wr.Incorrect)
	}
}

// recorded lists the metrics -runs documents hold: the bounded end-to-end
// metrics, then the unbounded tails.
func recorded() []metric { return append(append([]metric(nil), e2eMetrics...), tailMetrics...) }

// declared is BENCHMARK.json's view of one end-to-end metric.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json qbench reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

func readDoc(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareDocs prints one row per end-to-end metric × workload comparing
// the change b with the parent a against BENCHMARK.json's bounds.
func compareDocs(w io.Writer, root, pathA, pathB string) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := readDoc(pathA)
	if err != nil {
		return err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run lengths differ: %gs vs %gs", a.Seconds, b.Seconds)
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %-24s %12s %12s %8s %6s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "a spread", "verdict")
	regressed := 0
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		if wb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			v := verdict(sa.Values, sb.Values, m)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-10s %-24s %12.4f %12.4f %+7.1f%% %5.0f%% %7.1f%%  %s\n",
				n, m.Name, median(sa.Values), median(sb.Values), 100*(median(sb.Values)/median(sa.Values)-1), 100*m.Bound, 100*spread(sa.Values), v)
		}
		for _, m := range tailMetrics {
			sa, sb := wa.Metrics[m.name], wb.Metrics[m.name]
			if sa == nil || sb == nil {
				continue
			}
			fmt.Fprintf(w, "%-10s %-24s %12.4f %12.4f %+7.1f%% %6s %7.1f%%  unbounded\n",
				n, m.name, median(sa.Values), median(sb.Values), 100*(median(sb.Values)/median(sa.Values)-1), "-", 100*spread(sa.Values))
		}
		fmt.Fprintf(w, "%-10s %-24s %12.6f %12.6f\n", n, "failed_ratio", wa.FailedRatio, wb.FailedRatio)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric × workload pairs regressed", regressed)
	}
	return nil
}

// verdict classifies the change b against the parent a (the choosing-
// metrics guide, §6–8): regressed when b's median is worse by more than
// the bound; improved when b wins at least nine runs in ten, pair by pair,
// and the medians differ by more than a's interquartile distance;
// unresolved when a's own spread exceeds the bound, unless every run of b
// beats every run of a.
func verdict(a, b []float64, m declared) string {
	sign := 1.0 // positive worse
	if m.Better == "higher" {
		sign = -1
	}
	q1, ma, q3 := quartiles(a)
	mb := median(b)
	worse := sign * (mb - ma) / math.Abs(ma)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && sign*(x-y) < 0
		}
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	switch {
	case spread(a) > m.Bound && !allBetter:
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > q3-q1:
		return "improved"
	}
	return "unchanged"
}

// runReport runs each workload untraced and then traced with the same
// seed, prints the traced run's per-layer metrics, span self times and
// attribution chains, and the tracing overhead on every end-to-end
// metric.
func runReport(ctx context.Context, w io.Writer, sel []*workload, seed uint64, cfg func(*workload, uint64, bool) config) error {
	for _, wl := range sel {
		plain, err := execute(ctx, cfg(wl, seed, false))
		if err != nil {
			return err
		}
		traced, err := execute(ctx, cfg(wl, seed, true))
		if err != nil {
			return err
		}
		traced.print(w)
		fmt.Fprintf(w, "  tracing overhead (traced vs untraced, seed %d):\n", seed)
		for _, m := range recorded() {
			u, t := plain.E2E[m.name], traced.E2E[m.name]
			fmt.Fprintf(w, "    %-24s %12.4f -> %12.4f %s  %+7.1f%%\n", m.name, u, t, m.unit, 100*(t/u-1))
		}
		if !plain.Correct || !traced.Correct {
			return fmt.Errorf("%s failed the correctness gate", wl.name)
		}
	}
	return nil
}
