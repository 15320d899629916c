package core

import (
	"fmt"
	"math"
)

// queueStats maintains per-queue running Σservice and Σwait across sweeps
// without rescanning the event set: each latent-time write stages the
// handful of perturbed events (see moveCtx.stage/commit), the per-sweep
// deltas are merged here at the end of every sweep, and the running sums
// use Kahan compensation so the accumulated rounding error stays at a few
// ulps of the running magnitude regardless of sweep count. The merge order
// (queue order) is fixed, so the sums are deterministic for a fixed seed.
type queueStats struct {
	svc, wait   []float64 // running sums per queue
	cSvc, cWait []float64 // Kahan compensations
}

// kahanAdd folds delta into sum[q] with compensation comp[q].
func kahanAdd(sum, comp []float64, q int, delta float64) {
	y := delta - comp[q]
	t := sum[q] + y
	comp[q] = (t - sum[q]) - y
	sum[q] = t
}

// EnableQueueStats switches on incremental per-queue sufficient statistics,
// initializing the running sums from the current state with one full scan.
// Every subsequent Sweep keeps them current at O(1) cost per move. Calling
// it again reinitializes from the current state.
func (g *Gibbs) EnableQueueStats() {
	svc, wait := g.set.SumServiceWaitByQueue()
	nq := g.set.NumQueues
	g.stats = &queueStats{
		svc:   svc,
		wait:  wait,
		cSvc:  make([]float64, nq),
		cWait: make([]float64, nq),
	}
	if g.mc.dSvc == nil {
		g.mc.dSvc = make([]float64, nq)
		g.mc.dWait = make([]float64, nq)
	}
}

// merge folds mc's per-sweep deltas into the running sums, in fixed queue
// order, and zeroes them.
func (st *queueStats) merge(mc *moveCtx) {
	for q := range mc.dSvc {
		if d := mc.dSvc[q]; d != 0 {
			kahanAdd(st.svc, st.cSvc, q, d)
			mc.dSvc[q] = 0
		}
		if d := mc.dWait[q]; d != 0 {
			kahanAdd(st.wait, st.cWait, q, d)
			mc.dWait[q] = 0
		}
	}
}

// QueueMeansInto writes the current per-queue mean service and waiting
// times into svc and wait (length NumQueues); queues with no events get
// NaN. It requires EnableQueueStats.
func (g *Gibbs) QueueMeansInto(svc, wait []float64) {
	if g.stats == nil {
		panic("core: QueueMeansInto without EnableQueueStats")
	}
	for q := 0; q < g.set.NumQueues; q++ {
		n := len(g.set.ByQueue[q])
		if n == 0 {
			svc[q] = math.NaN()
			wait[q] = math.NaN()
			continue
		}
		svc[q] = g.stats.svc[q] / float64(n)
		wait[q] = g.stats.wait[q] / float64(n)
	}
}

// CheckQueueStats cross-checks the incremental sums against a full rescan
// of the event set, failing when any per-queue total differs by more than
// tol·max(1, |rescan|). It is the debug mode of the incremental-statistics
// path (PosteriorOptions.DebugStats runs it every sweep).
func (g *Gibbs) CheckQueueStats(tol float64) error {
	if g.stats == nil {
		return fmt.Errorf("core: CheckQueueStats without EnableQueueStats")
	}
	svc, wait := g.set.SumServiceWaitByQueue()
	for q := range svc {
		if d := math.Abs(g.stats.svc[q] - svc[q]); d > tol*math.Max(1, math.Abs(svc[q])) {
			return fmt.Errorf("core: queue %d incremental Σservice %v drifted from rescan %v (|Δ| = %v)",
				q, g.stats.svc[q], svc[q], d)
		}
		if d := math.Abs(g.stats.wait[q] - wait[q]); d > tol*math.Max(1, math.Abs(wait[q])) {
			return fmt.Errorf("core: queue %d incremental Σwait %v drifted from rescan %v (|Δ| = %v)",
				q, g.stats.wait[q], wait[q], d)
		}
	}
	return nil
}
