package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/qnet"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Every stream simulates the paper's §5.1 three-tier network at a stable
// load: Poisson arrivals at rate lambda, exponential service at rate mu on
// every replica, and a tenth of the tasks observed.
const (
	lambda  = 4.0
	mu      = 5.0
	observe = 0.1
)

// shape is how a workload's events reach the daemon.
type shape int

const (
	// openLoop sends each stream's events on a fixed schedule of rate
	// seals/s per stream, flushing what is due every flush interval:
	// independent users that do not wait for the daemon.
	openLoop shape = iota
	// closedLoop posts batch-event bodies back to back, round-robin over
	// the streams: the next POST leaves when the previous one returns.
	closedLoop
	// coldStart creates newPerSec streams per second, each with one PUT
	// and one POST holding a full window.
	coldStart
)

// workload is one traffic mix; BENCHMARK.json and README.md say why each
// was chosen.
type workload struct {
	name      string
	shape     shape
	streams   int           // streams warmed up before the measured phase
	tiers     []int         // replica count of each tier
	window    int           // window_tasks of every stream (coldstart: the smallest)
	rate      float64       // open loop: seals per second per stream
	flush     time.Duration // open loop: how often due events are posted
	batch     int           // closed loop: events per POST
	durable   bool          // qserved keeps a write-ahead log
	newPerSec float64       // coldstart: streams created per second
	windowMax int           // coldstart: windows spread evenly over [window, windowMax]
	phase     time.Duration // coldstart: when the first stream is created
}

// The sizes keep the spread of every bounded metric from seed to seed
// below about 10% at a 20 s phase on a 2-CPU host while the host runs at
// a steady speed (README.md, "Calibration"). fleet's 4 seals/s keep the
// two inference workers short of saturation, where every slowdown of the
// host grows the queue; at 8 they were busy 97% of the time. A bigwin
// window of 4000 fits only seven epochs in a run. Smaller ingest POSTs
// leave throughput to the scheduler: each waits up to a preemption tick
// for a CPU the sweeps hold.
//
// coldstart creates a stream every 500 ms, 100 ms after each 1 s scrape:
// a new stream's epoch (250 to 350 ms) normally ends before the next one
// starts, so a first answer seldom waits for a CPU that the previous
// stream's sweeps or a scrape holds. qserved publishes the first Gibbs
// estimate at the end of a 50 ms visit, so the time to it falls on a
// 50 ms lattice. Windows spread over more than one visit's worth of
// sweeps, and a mean rather than a median, turn that lattice into a
// number that moves in proportion to sweep speed instead of jumping by a
// whole visit.
var workloads = []*workload{
	// Inference-bound across many streams: executor order, sweeps, slides
	// and publishes dominate; ingest does almost nothing.
	{name: "fleet", shape: openLoop, streams: 32, tiers: []int{1, 2, 4}, window: 500,
		rate: 0.125, flush: 100 * time.Millisecond},
	// One stream whose epochs are a second of sequential sweeps: the only
	// workload where sweep speed and intra-stream parallelism can show.
	{name: "bigwin", shape: openLoop, streams: 1, tiers: []int{2, 4, 4}, window: 2000,
		rate: 20, flush: 100 * time.Millisecond},
	// Write-path-bound: decode, apply, WAL append and fsync, and HTTP, with
	// saturated inference (every epoch a rebuild) on the same CPUs.
	{name: "ingest", shape: closedLoop, streams: 4, tiers: []int{1, 2, 4}, window: 500,
		batch: 16384, durable: true},
	// Every stream pays window assembly, the mean-field solve and a cold
	// StEM: the fast path and per-stream memory.
	{name: "coldstart", shape: coldStart, tiers: []int{1, 2, 4}, window: 500, windowMax: 700,
		newPerSec: 2, phase: 100 * time.Millisecond},
}

// coldWindow is the window of the i-th new stream: the golden-ratio
// sequence spreads the sizes evenly over [window, windowMax] and over the
// run, and is the same for every seed.
func (w *workload) coldWindow(i int) int {
	_, frac := math.Modf(float64(i) * (math.Sqrt(5) - 1) / 2)
	return w.window + int(math.Round(frac*float64(w.windowMax-w.window)))
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet, bigwin, ingest or coldstart)", name)
}

// emission is one event the driver sends, stamped with the simulated time
// it is emitted at (its departure, when a real instrumentation point would
// hold both timestamps) and with its task's ground truth, which the
// correctness gate checks estimates against.
type emission struct {
	at    float64
	entry float64 // the task's entry time
	task  *truth
	ev    serve.IngestEvent
}

// truth is the realized wait of one task at each queue it visited.
type truth struct {
	queue []int
	wait  []float64
}

// network builds the workload's queueing network.
func (w *workload) network() (*qnet.Network, error) {
	specs := make([]qnet.TierSpec, len(w.tiers))
	for i, n := range w.tiers {
		specs[i] = qnet.TierSpec{Name: "tier" + strconv.Itoa(i), Replicas: n, Service: dist.NewExponential(mu)}
	}
	return qnet.Tiered(dist.NewExponential(lambda), specs)
}

// tierQueues lists each tier's queues; queue 0 is the arrival queue.
func (w *workload) tierQueues() [][]int {
	out := make([][]int, len(w.tiers))
	q := 1
	for i, n := range w.tiers {
		for r := 0; r < n; r++ {
			out[i] = append(out[i], q)
			q++
		}
	}
	return out
}

func (w *workload) numQueues() int {
	n := 1
	for _, r := range w.tiers {
		n += r
	}
	return n
}

// simulate generates tasks tasks of the workload's network from rng and
// returns their events in emission order. Task k is named "t<k>".
func (w *workload) simulate(rng *xrand.RNG, tasks int) ([]emission, error) {
	net, err := w.network()
	if err != nil {
		return nil, err
	}
	es, err := sim.Run(net, rng, sim.Options{Tasks: tasks})
	if err != nil {
		return nil, err
	}
	es.ObserveTasks(rng, observe)
	out := make([]emission, 0, len(es.Events)-es.NumTasks)
	for k := 0; k < es.NumTasks; k++ {
		entry := es.Dep[es.ByTask[k][0]] // the synthetic q0 event departs at entry
		ids := es.ByTask[k][1:]
		name := "t" + strconv.Itoa(k)
		t := &truth{}
		for _, id := range ids {
			t.queue = append(t.queue, es.Events[id].Queue)
			t.wait = append(t.wait, es.WaitTime(id))
		}
		for j, id := range ids {
			e := &es.Events[id]
			out = append(out, emission{at: es.Dep[id], entry: entry, task: t, ev: serve.IngestEvent{
				Task: name, State: e.State, Queue: e.Queue,
				Arrival: es.Arr[id], Depart: es.Dep[id],
				ObsArrival: e.ObsArrival, ObsDepart: e.ObsDepart,
				Final: j == len(ids)-1,
			}})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out, nil
}

// warmEnd is the number of leading emissions that seal the first n tasks:
// the warm-up POST sends exactly these.
func warmEnd(evs []emission, n int) int {
	sealed := 0
	for i := range evs {
		if evs[i].ev.Final {
			if sealed++; sealed == n {
				return i + 1
			}
		}
	}
	return len(evs)
}
