package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Span kinds qserved records (internal/serve/server.go).
const (
	kindIngest    = "ingest"
	kindBatch     = "ingest.batch"
	kindWALAppend = "wal.append"
	kindWALFsync  = "wal.fsync"
	kindQueueWait = "queue.wait"
	kindVisit     = "visit"
	kindSlide     = "window.slide"
	kindRebuild   = "window.rebuild"
	kindSweep     = "sweep"
	kindPublish   = "publish"
)

func parseSpans(b []byte) ([]obs.Span, error) {
	var out []obs.Span
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("decoding /debug/trace line: %w", err)
		}
		out = append(out, sp)
	}
	return out, sc.Err()
}

// kindStat sums the spans of one kind.
type kindStat struct {
	Kind    string  `json:"kind"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// spanStats is what a traced run's span ring says about its measured
// phase.
type spanStats struct {
	kinds map[string]*kindStat
	durs  map[string]samples // ms, per span, by kind
	// chain holds, per ingest root whose chain reached a publish, the time
	// its seals spent in queue.wait + window sync + sweeps + publish.
	chain samples
}

// analyzeSpans computes per-kind counts, total and self time over the
// spans that started in [from, to), and the inference chain of every
// ingest root that started there.
//
// A span's self time is its duration minus the part covered by its child
// spans of the same plane. queue.wait and visit hang under the ingest root
// only to link the chain: they run on the inference plane, concurrently
// with requests, and cover nothing on the ingest plane. qserved parents
// wal.append under the ingest root although it runs inside ingest.batch,
// so a same-plane sibling wholly inside a span's interval counts as its
// child too.
func analyzeSpans(spans []obs.Span, from, to int64) *spanStats {
	st := &spanStats{kinds: map[string]*kindStat{}, durs: map[string]samples{}}
	byParent := map[uint64][]int{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			byParent[p] = append(byParent[p], i)
		}
	}
	var cover [][2]int64
	for i := range spans {
		sp := &spans[i]
		if sp.StartNS < from || sp.StartNS >= to {
			continue
		}
		cover = cover[:0]
		plane := ingestPlane(sp.Kind)
		for _, c := range byParent[sp.ID] {
			if ingestPlane(spans[c].Kind) == plane {
				cover = append(cover, [2]int64{spans[c].StartNS, spans[c].EndNS})
			}
		}
		if sp.Parent != 0 {
			for _, c := range byParent[sp.Parent] {
				o := &spans[c]
				if o.ID != sp.ID && ingestPlane(o.Kind) == plane && o.StartNS >= sp.StartNS && o.EndNS <= sp.EndNS {
					cover = append(cover, [2]int64{o.StartNS, o.EndNS})
				}
			}
		}
		dur := sp.EndNS - sp.StartNS
		k := st.kinds[sp.Kind]
		if k == nil {
			k = &kindStat{Kind: sp.Kind}
			st.kinds[sp.Kind] = k
		}
		k.Count++
		k.TotalMS += float64(dur) / 1e6
		k.SelfMS += float64(dur-covered(cover, sp.StartNS, sp.EndNS)) / 1e6
		d := st.durs[sp.Kind]
		d.add(float64(dur)/1e6, 1)
		st.durs[sp.Kind] = d
		if sp.Parent == 0 && sp.Kind == kindIngest {
			if c, ok := chainOf(spans, byParent, i); ok {
				st.chain.add(c, 1)
			}
		}
	}
	return st
}

// ingestPlane reports whether a span kind runs inside an ingest request,
// as opposed to on the inference executor.
func ingestPlane(kind string) bool {
	switch kind {
	case kindIngest, kindBatch, kindWALAppend, kindWALFsync:
		return true
	}
	return false
}

// chainOf sums, over the descendants of root i, the spans on the path
// from a seal to its publish. ok is false when no publish completed the
// chain (a newer root superseded it).
func chainOf(spans []obs.Span, byParent map[uint64][]int, i int) (ms float64, ok bool) {
	stack := append([]int(nil), byParent[spans[i].ID]...)
	for len(stack) > 0 {
		sp := &spans[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch sp.Kind {
		case kindQueueWait, kindSlide, kindRebuild, kindSweep, kindPublish:
			ms += float64(sp.EndNS-sp.StartNS) / 1e6
		}
		ok = ok || sp.Kind == kindPublish
		stack = append(stack, byParent[sp.ID]...)
	}
	return ms, ok
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// totalMS is the summed duration of a kind's spans; selfMS its self time.
func (st *spanStats) totalMS(kind string) float64 {
	if k := st.kinds[kind]; k != nil {
		return k.TotalMS
	}
	return 0
}

func (st *spanStats) selfMS(kind string) float64 {
	if k := st.kinds[kind]; k != nil {
		return k.SelfMS
	}
	return 0
}

func (st *spanStats) count(kind string) int {
	if k := st.kinds[kind]; k != nil {
		return k.Count
	}
	return 0
}

// sorted lists the kinds by total time, largest first.
func (st *spanStats) sorted() []kindStat {
	out := make([]kindStat, 0, len(st.kinds))
	for _, k := range st.kinds {
		out = append(out, *k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}
