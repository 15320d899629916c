package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// This file implements the generalization the paper names as future work:
// "more general arrival and service distributions". Service times follow a
// parametric family per queue (ServiceModel); the full conditional of a
// latent time is no longer piecewise log-linear, so each Gibbs update
// becomes a Metropolis–Hastings step whose independence proposal is the
// exact conditional of a *moment-matched exponential* model — for
// exponential families the proposal equals the target and every move is
// accepted, recovering the plain Gibbs sampler.

// ServiceModel is a parametric service-time family for the generalized
// sampler: it scores service times and refits its parameters from imputed
// complete-data samples (the M-step of generalized StEM).
type ServiceModel interface {
	// LogPDF returns the log density of a service time (-Inf for s < 0).
	LogPDF(s float64) float64
	// Mean returns the family's current mean service time.
	Mean() float64
	// Fit returns a new model of the same family fitted to the samples.
	Fit(samples []float64) (ServiceModel, error)
	// String describes the model and its parameters.
	String() string
}

// ---------------------------------------------------------------------------
// Families

// ExpModel is the exponential family (the paper's M/M/1 case).
type ExpModel struct{ Rate float64 }

// LogPDF implements ServiceModel.
func (m ExpModel) LogPDF(s float64) float64 {
	if s < 0 {
		return math.Inf(-1)
	}
	return math.Log(m.Rate) - m.Rate*s
}

// Mean implements ServiceModel.
func (m ExpModel) Mean() float64 { return 1 / m.Rate }

// Fit implements ServiceModel (MLE).
func (m ExpModel) Fit(samples []float64) (ServiceModel, error) {
	mean := stats.Mean(samples)
	if !(mean > 0) {
		return nil, fmt.Errorf("core: exponential fit needs positive mean, got %v", mean)
	}
	return ExpModel{Rate: clampRate(1 / mean)}, nil
}

func (m ExpModel) String() string { return fmt.Sprintf("Exp(rate=%g)", m.Rate) }

// GammaModel is the Gamma family; fitting uses moment matching, the
// standard fast surrogate for the Gamma MLE.
type GammaModel struct{ Shape, Rate float64 }

// LogPDF implements ServiceModel.
func (m GammaModel) LogPDF(s float64) float64 {
	if s < 0 {
		return math.Inf(-1)
	}
	if s == 0 {
		if m.Shape < 1 {
			return math.Inf(1)
		}
		if m.Shape > 1 {
			return math.Inf(-1)
		}
		return math.Log(m.Rate)
	}
	lg, _ := math.Lgamma(m.Shape)
	return m.Shape*math.Log(m.Rate) + (m.Shape-1)*math.Log(s) - m.Rate*s - lg
}

// Mean implements ServiceModel.
func (m GammaModel) Mean() float64 { return m.Shape / m.Rate }

// Fit implements ServiceModel via moment matching: shape = mean²/var,
// rate = mean/var.
func (m GammaModel) Fit(samples []float64) (ServiceModel, error) {
	mean := stats.Mean(samples)
	v := stats.Variance(samples)
	if !(mean > 0) || !(v > 0) {
		return nil, fmt.Errorf("core: gamma fit needs positive mean/variance (%v, %v)", mean, v)
	}
	shape := mean * mean / v
	// Keep the family well-behaved: very large shapes make LogPDF spiky
	// and the MH acceptance collapse.
	shape = math.Min(math.Max(shape, 0.05), 500)
	return GammaModel{Shape: shape, Rate: clampRate(shape / mean)}, nil
}

func (m GammaModel) String() string {
	return fmt.Sprintf("Gamma(shape=%g,rate=%g)", m.Shape, m.Rate)
}

// LogNormalModel is the log-normal family with exact MLE fitting.
type LogNormalModel struct{ Mu, Sigma float64 }

// LogPDF implements ServiceModel.
func (m LogNormalModel) LogPDF(s float64) float64 {
	if s <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(s) - m.Mu) / m.Sigma
	return -math.Log(s*m.Sigma*math.Sqrt(2*math.Pi)) - z*z/2
}

// Mean implements ServiceModel.
func (m LogNormalModel) Mean() float64 {
	return math.Exp(m.Mu + m.Sigma*m.Sigma/2)
}

// Fit implements ServiceModel: the MLE is the sample mean/SD of log s.
func (m LogNormalModel) Fit(samples []float64) (ServiceModel, error) {
	logs := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s > 0 {
			logs = append(logs, math.Log(s))
		}
	}
	if len(logs) < 2 {
		return nil, fmt.Errorf("core: lognormal fit needs >= 2 positive samples")
	}
	mu := stats.Mean(logs)
	sigma := math.Sqrt(stats.Variance(logs))
	if !(sigma > 0) {
		sigma = 1e-3
	}
	sigma = math.Max(sigma, 1e-3)
	return LogNormalModel{Mu: mu, Sigma: sigma}, nil
}

func (m LogNormalModel) String() string {
	return fmt.Sprintf("LogNormal(mu=%g,sigma=%g)", m.Mu, m.Sigma)
}

// WeibullModel is the Weibull family, fitted by matching the coefficient
// of variation (bisection on the shape, closed form for the scale).
type WeibullModel struct{ Scale, Shape float64 }

// LogPDF implements ServiceModel.
func (m WeibullModel) LogPDF(s float64) float64 {
	if s < 0 {
		return math.Inf(-1)
	}
	if s == 0 {
		if m.Shape < 1 {
			return math.Inf(1)
		}
		if m.Shape > 1 {
			return math.Inf(-1)
		}
		return -math.Log(m.Scale)
	}
	t := s / m.Scale
	return math.Log(m.Shape/m.Scale) + (m.Shape-1)*math.Log(t) - math.Pow(t, m.Shape)
}

// Mean implements ServiceModel.
func (m WeibullModel) Mean() float64 { return m.Scale * math.Gamma(1+1/m.Shape) }

// weibullCV2 returns the squared coefficient of variation as a function of
// the shape k; it decreases monotonically in k.
func weibullCV2(k float64) float64 {
	g1 := math.Gamma(1 + 1/k)
	g2 := math.Gamma(1 + 2/k)
	return g2/(g1*g1) - 1
}

// Fit implements ServiceModel by moment matching.
func (m WeibullModel) Fit(samples []float64) (ServiceModel, error) {
	mean := stats.Mean(samples)
	v := stats.Variance(samples)
	if !(mean > 0) || !(v > 0) {
		return nil, fmt.Errorf("core: weibull fit needs positive mean/variance (%v, %v)", mean, v)
	}
	cv2 := v / (mean * mean)
	// Bisection on k in [0.2, 20]; weibullCV2 is decreasing in k.
	lo, hi := 0.2, 20.0
	cv2 = math.Min(math.Max(cv2, weibullCV2(hi)), weibullCV2(lo))
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if weibullCV2(mid) > cv2 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	scale := mean / math.Gamma(1+1/k)
	return WeibullModel{Scale: scale, Shape: k}, nil
}

func (m WeibullModel) String() string {
	return fmt.Sprintf("Weibull(scale=%g,shape=%g)", m.Scale, m.Shape)
}

func clampRate(r float64) float64 {
	return math.Min(math.Max(r, rateFloor), rateCeil)
}

// ---------------------------------------------------------------------------
// Metropolis-within-Gibbs sampler

// GeneralGibbs samples the posterior over unobserved times when service
// distributions are arbitrary parametric families. Each latent variable is
// updated by an independence Metropolis–Hastings step proposing from the
// exact conditional of the moment-matched exponential model.
type GeneralGibbs struct {
	set    *trace.EventSet
	models []ServiceModel
	// rates holds the proposal rates 1/Mean() of the moment-matched
	// exponential models, kept in step with models.
	rates []float64
	rng   *xrand.RNG

	moves    latentMoves
	sweeps   int
	proposed int
	accepted int
}

// NewGeneralGibbs validates inputs and prepares the move lists; the event
// set must already be feasible. models[0] governs interarrivals (queue q0).
func NewGeneralGibbs(es *trace.EventSet, models []ServiceModel, rng *xrand.RNG) (*GeneralGibbs, error) {
	if len(models) != es.NumQueues {
		return nil, fmt.Errorf("core: %d service models for %d queues", len(models), es.NumQueues)
	}
	for q, m := range models {
		if m == nil {
			return nil, fmt.Errorf("core: nil service model for queue %d", q)
		}
		if !(m.Mean() > 0) || math.IsInf(m.Mean(), 1) {
			return nil, fmt.Errorf("core: service model for queue %d has invalid mean %v", q, m.Mean())
		}
	}
	if rng == nil {
		return nil, fmt.Errorf("core: nil RNG")
	}
	if err := es.Validate(1e-6); err != nil {
		return nil, fmt.Errorf("core: infeasible initial state: %w", err)
	}
	g := &GeneralGibbs{
		set:    es,
		models: make([]ServiceModel, len(models)),
		rates:  make([]float64, len(models)),
		rng:    rng,
	}
	if err := g.SetModels(models); err != nil {
		return nil, err
	}
	g.moves.build(es)
	return g, nil
}

// SetModels replaces the service models (between StEM iterations).
func (g *GeneralGibbs) SetModels(models []ServiceModel) error {
	if len(models) != g.set.NumQueues {
		return fmt.Errorf("core: %d service models for %d queues", len(models), g.set.NumQueues)
	}
	copy(g.models, models)
	for q, m := range g.models {
		g.rates[q] = 1 / m.Mean()
	}
	return nil
}

// Models returns the current per-queue service models.
func (g *GeneralGibbs) Models() []ServiceModel {
	return append([]ServiceModel(nil), g.models...)
}

// Set returns the underlying event set.
func (g *GeneralGibbs) Set() *trace.EventSet { return g.set }

// AcceptanceRate returns the fraction of MH proposals accepted so far
// (1.0 when all models are exponential).
func (g *GeneralGibbs) AcceptanceRate() float64 {
	if g.proposed == 0 {
		return math.NaN()
	}
	return float64(g.accepted) / float64(g.proposed)
}

// Sweep performs one full MH scan, alternating direction like Gibbs.Sweep.
func (g *GeneralGibbs) Sweep() {
	g.moves.scan(g.sweeps%2 == 1, g.mhArrival, g.mhFinalDeparture)
	g.sweeps++
}

// localArrivalLogDensity returns the sum of the service log densities that
// depend on a_e = value: s_e, s_{π(e)}, s_{ρ⁻¹(π(e))} (distinct events
// only). The event set must currently hold `value` as the arrival.
func (g *GeneralGibbs) localArrivalLogDensity(i int) float64 {
	es := g.set
	e := &es.Events[i]
	p := e.PrevT
	total := g.models[e.Queue].LogPDF(es.ServiceTime(i))
	total += g.models[es.Events[p].Queue].LogPDF(es.ServiceTime(p))
	if pn := es.Events[p].NextQ; pn != trace.None && pn != i {
		total += g.models[es.Events[pn].Queue].LogPDF(es.ServiceTime(pn))
	}
	return total
}

// localDepartLogDensity returns the sum of the service log densities that
// depend on the final departure d_e: s_e and, when a later arrival to the
// same queue exists, s_{ρ⁻¹(e)}.
func (g *GeneralGibbs) localDepartLogDensity(i int) float64 {
	es := g.set
	e := &es.Events[i]
	total := g.models[e.Queue].LogPDF(es.ServiceTime(i))
	if e.NextQ != trace.None {
		total += g.models[e.Queue].LogPDF(es.ServiceTime(e.NextQ))
	}
	return total
}

// accept counts one proposal and reports whether the MH test with log
// acceptance ratio logAlpha accepts it.
func (g *GeneralGibbs) accept(logAlpha float64) bool {
	g.proposed++
	if logAlpha >= 0 || math.Log(g.rng.Float64Open()) < logAlpha {
		g.accepted++
		return true
	}
	return false
}

// mhArrival performs one independence-MH update of a latent arrival,
// proposing from its exponential-proxy conditional (arrivalCond).
func (g *GeneralGibbs) mhArrival(i int) {
	es := g.set
	var c condSpec
	if !arrivalCond(&c, es, g.rates, i) {
		return
	}
	cur := es.Arr[i]
	prop := c.clamp(c.sample(g.rng))
	logCur := g.localArrivalLogDensity(i)
	es.SetArrival(i, prop)
	logProp := g.localArrivalLogDensity(i)
	if !g.accept((logProp - logCur) - (c.logPDF(prop) - c.logPDF(cur))) {
		es.SetArrival(i, cur)
	}
}

// mhFinalDeparture performs one independence-MH update of a latent final
// departure, proposing from its exponential-proxy conditional
// (finalDepartCond).
func (g *GeneralGibbs) mhFinalDeparture(i int) {
	es := g.set
	var c condSpec
	if !finalDepartCond(&c, es, g.rates, i) {
		return
	}
	cur := es.Dep[i]
	prop := c.clamp(c.sample(g.rng))
	logCur := g.localDepartLogDensity(i)
	es.Dep[i] = prop
	logProp := g.localDepartLogDensity(i)
	if !g.accept((logProp - logCur) - (c.logPDF(prop) - c.logPDF(cur))) {
		es.Dep[i] = cur
	}
}

// ---------------------------------------------------------------------------
// Generalized StEM

// GeneralEMResult is the outcome of GeneralStEM.
type GeneralEMResult struct {
	// Models holds the final per-queue service models (the last iterate;
	// parametric families do not average the way rate vectors do).
	Models []ServiceModel
	// MeanService is the average of the post-burn-in per-queue model
	// means — the comparable point estimate.
	MeanService []float64
	// Acceptance is the overall MH acceptance rate.
	Acceptance float64
	// Sampler exposes the final sampler state.
	Sampler *GeneralGibbs
}

// GeneralStEM runs stochastic EM with arbitrary parametric service
// families: E-step = one MH sweep, M-step = refit each family to the
// imputed service times. models supplies the initial families (one per
// queue, index 0 = interarrivals).
func GeneralStEM(es *trace.EventSet, models []ServiceModel, rng *xrand.RNG, opts EMOptions) (*GeneralEMResult, error) {
	opts = opts.withDefaults()
	if opts.BurnIn >= opts.Iterations {
		return nil, fmt.Errorf("core: burn-in %d >= iterations %d", opts.BurnIn, opts.Iterations)
	}
	if len(models) != es.NumQueues {
		return nil, fmt.Errorf("core: %d models for %d queues", len(models), es.NumQueues)
	}
	// Initialize with the models' means as targets.
	rates := make([]float64, es.NumQueues)
	for q, m := range models {
		rates[q] = clampRate(1 / m.Mean())
	}
	if err := opts.Init.Initialize(es, Params{Rates: rates}); err != nil {
		return nil, fmt.Errorf("core: initialization: %w", err)
	}
	g, err := NewGeneralGibbs(es, models, rng)
	if err != nil {
		return nil, err
	}
	cur := append([]ServiceModel(nil), models...)
	meanSum := make([]float64, es.NumQueues)
	kept := 0
	samples := make([][]float64, es.NumQueues)
	for iter := 0; iter < opts.Iterations; iter++ {
		g.Sweep()
		for q := range samples {
			samples[q] = samples[q][:0]
		}
		for q, ids := range es.ByQueue {
			for _, id := range ids {
				samples[q] = append(samples[q], es.ServiceTime(id))
			}
		}
		for q := range cur {
			if len(samples[q]) == 0 {
				continue
			}
			next, err := cur[q].Fit(samples[q])
			if err != nil {
				// Keep the previous iterate on degenerate fits.
				continue
			}
			cur[q] = next
		}
		if err := g.SetModels(cur); err != nil {
			return nil, err
		}
		if iter >= opts.BurnIn {
			for q, m := range cur {
				meanSum[q] += m.Mean()
			}
			kept++
		}
	}
	res := &GeneralEMResult{
		Models:      cur,
		MeanService: make([]float64, es.NumQueues),
		Acceptance:  g.AcceptanceRate(),
		Sampler:     g,
	}
	for q := range meanSum {
		res.MeanService[q] = meanSum[q] / float64(kept)
	}
	return res, nil
}
