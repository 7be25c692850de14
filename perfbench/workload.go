package main

// Workloads. Each one is a traffic mix generated from the --seed
// argument; the server only ever sees the generated job specs. Why
// each exists, and which layers it loads, is in README.md.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/ralab/are/internal/server"
	"github.com/ralab/are/internal/spec"
)

// jobSpec is one distinct job body plus what the benchmark knows about
// it: the parsed spec, the YET occurrences it answers, and the oracle's
// expected result (filled before any timing starts).
type jobSpec struct {
	body []byte
	js   *spec.Job
	occ  int64
	want *server.JobResult
}

// arrival is one open-loop submission: when it is due, relative to the
// start of its window, what it sends and as which tenant.
type arrival struct {
	due    time.Duration
	job    *jobSpec
	tenant int
}

// workload is one generated traffic mix.
type workload struct {
	name    string
	open    bool // open loop (seeded Poisson schedule) vs closed loop, one client
	durable bool // server journals to a data directory
	tenants bool // API keys and per-tenant quotas on

	// base are the distinct specs set-up builds and answers once; the
	// closed loop cycles through them in order.
	base []*jobSpec
	// fresh are open-loop specs with a YET seed no other arrival
	// shares, so they miss the artifact cache by construction.
	fresh []*jobSpec

	// Closed loop only: how many jobs one measured window sends.
	jobs int

	// Open loop only.
	rate     float64   // offered arrivals per second
	schedule []arrival // due times for one measured window, ascending
}

// workloadNames lists every workload the benchmark can run.
var workloadNames = []string{"portfolio-rollup", "pricing-sweep", "quote-burst"}

// splitmix is the benchmark's own seeded generator (SplitMix64), so
// workload inputs depend on the seed and on nothing in the repository.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// seed returns a generator seed that is never zero.
func (r *splitmix) seed() uint64 { return r.next()%1_000_000_007 + 1 }

func limit(v float64) *spec.Limit { l := spec.Limit(v); return &l }
func f64(v float64) *float64      { return &v }

// portfolioShape sizes a generated portfolio.
type portfolioShape struct {
	catalog, layers, eltsPerLayer, records int
	participation, sigma                   float64
}

// portfolio generates a book of shape s: distinct ELTs per layer,
// each a synthetic table, and per-layer occurrence terms that bite.
func (s portfolioShape) portfolio(r *splitmix) *spec.File {
	f := &spec.File{CatalogSize: s.catalog}
	id := uint32(1)
	for l := 0; l < s.layers; l++ {
		ls := spec.LayerSpec{ID: uint32(l + 1), Name: fmt.Sprintf("layer-%d", l+1)}
		for e := 0; e < s.eltsPerLayer; e++ {
			f.ELTs = append(f.ELTs, spec.ELTSpec{
				ID:    id,
				Terms: &spec.TermsSpec{FX: 1, Participation: s.participation},
				Generate: &spec.GenerateSpec{
					Seed:       r.seed(),
					NumRecords: s.records,
					MeanLoss:   150_000 + 200_000*r.float(),
					Sigma:      s.sigma,
				},
			})
			ls.ELTs = append(ls.ELTs, id)
			id++
		}
		ls.Terms = &spec.LayerTermsSpec{
			OccRetention: 2e5 * float64(l+1),
			OccLimit:     limit(4e6 * float64(l+1)),
		}
		f.Layers = append(f.Layers, ls)
	}
	return f
}

// newJob renders a job spec as the exact body the client submits and
// parses it back the way the server does.
func newJob(j *spec.Job) (*jobSpec, error) {
	body, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	js, err := spec.ParseJob(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("generated spec invalid: %w", err)
	}
	return &jobSpec{body: body, js: js}, nil
}

// buildWorkload generates the named workload from seed. tiny shrinks
// every size to a smoke-test scale; the traffic shape is unchanged.
// seconds is the measured window, which sizes the open-loop schedule.
func buildWorkload(name string, seed uint64, seconds float64, tiny bool) (*workload, error) {
	r := &splitmix{s: seed ^ 0xA5A5A5A5A5A5A5A5}
	w := &workload{name: name}
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	quoted := spec.MetricsSpec{Quotes: true}
	add := func(dst *[]*jobSpec, j *spec.Job) error {
		js, err := newJob(j)
		if err != nil {
			return err
		}
		*dst = append(*dst, js)
		return nil
	}
	switch name {
	case "portfolio-rollup":
		// The paper's §V shape, scaled down in trials only: 1000
		// events per trial, 15 ELTs per layer, direct lookup. Two
		// layers × 15 dense ELTs × 500k events × 8 B = 114 MiB of
		// lookup tables, past the 105 MiB LLC of the reference host.
		shape := portfolioShape{catalog: pick(500_000, 4_000), layers: 2, eltsPerLayer: pick(15, 3),
			records: pick(20_000, 200), participation: 0.8}
		p := shape.portfolio(r)
		for i := 0; i < 2; i++ {
			if err := add(&w.base, &spec.Job{Portfolio: p, Lookup: "direct", Metrics: quoted,
				YET: spec.YETSpec{Seed: r.seed(), Trials: pick(300, 40), FixedEvents: pick(1000, 50)}}); err != nil {
				return nil, err
			}
		}
	case "pricing-sweep":
		// Real-time pricing: one small book under 8 candidate
		// structures, quotes and sampled severities on. The overrides
		// mix retention/limit changes with participation scales, so
		// the financial fan-out path runs, not only the shared-loss
		// path.
		shape := portfolioShape{catalog: pick(100_000, 2_000), layers: 2, eltsPerLayer: pick(6, 2),
			records: pick(5_000, 100), participation: 0.5, sigma: 0.4}
		p := shape.portfolio(r)
		yetSpec := spec.YETSpec{Seed: r.seed(), Trials: pick(1_000, 40), MeanEvents: float64(pick(250, 20))}
		for i := 0; i < 3; i++ {
			ret := 1e5 * float64(1+i)
			variants := []spec.VariantSpec{
				{Name: "base"},
				{Name: "higher-retention", OccRetention: f64(ret * 4)},
				{Name: "lower-limit", OccLimit: limit(2e6)},
				{Name: "share-80", ParticipationScale: 0.8},
				{Name: "share-150", ParticipationScale: 1.5},
				{Name: "agg-retention", AggRetention: f64(ret * 10)},
				{Name: "agg-limit", AggLimit: limit(8e6)},
				{Name: "share-120-retention", ParticipationScale: 1.2, OccRetention: f64(ret * 2)},
			}
			if err := add(&w.base, &spec.Job{Portfolio: p, Lookup: "direct", Metrics: quoted, YET: yetSpec,
				Uncertainty: &spec.UncertaintySpec{Mode: "sampled", Seed: r.seed()},
				Sweep:       &spec.SweepSpec{Variants: variants}}); err != nil {
				return nil, err
			}
		}
	case "quote-burst":
		// Independent underwriters sending small quoted jobs: two
		// tenants, fusion and the durable store on, one in freshEvery
		// arrivals on a YET seed nobody else uses.
		w.open, w.durable, w.tenants = true, true, true
		shape := portfolioShape{catalog: pick(50_000, 1_000), layers: 1, eltsPerLayer: pick(4, 2),
			records: pick(2_000, 50), participation: 0.7}
		yetFor := func() spec.YETSpec {
			return spec.YETSpec{Seed: r.seed(), Trials: pick(2_000, 20), MeanEvents: float64(pick(100, 10))}
		}
		books := []*spec.File{shape.portfolio(r), shape.portfolio(r)}
		for _, p := range books {
			for i := 0; i < 2; i++ {
				if err := add(&w.base, &spec.Job{Portfolio: p, Metrics: quoted, YET: yetFor()}); err != nil {
					return nil, err
				}
			}
		}
		w.rate = burstRate
		if tiny {
			w.rate = 20
		}
		// A Poisson process conditioned on its count: exactly
		// rate × seconds arrivals at sorted uniform times, so every
		// seed offers the same load and the same mix — round-robin
		// over the base specs and tenants, every freshEvery-th arrival
		// fresh, alternating books — and seeds differ only in when
		// jobs arrive.
		const freshEvery = 10
		n := int(math.Round(w.rate * seconds))
		due := make([]float64, n)
		for i := range due {
			due[i] = r.float() * seconds
		}
		sort.Float64s(due)
		for i, t := range due {
			a := arrival{due: time.Duration(t * float64(time.Second)), tenant: i % 2}
			if i%freshEvery == freshEvery-1 {
				book := books[(i/freshEvery)%len(books)]
				if err := add(&w.fresh, &spec.Job{Portfolio: book, Metrics: quoted, YET: yetFor()}); err != nil {
					return nil, err
				}
				a.job = w.fresh[len(w.fresh)-1]
			} else {
				a.job = w.base[i%len(w.base)]
			}
			w.schedule = append(w.schedule, a)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if !w.open {
		w.jobs = max(1, int(math.Round(closedRate*seconds)))
	}
	return w, nil
}

// closedRate sizes a closed-loop window: closedRate × seconds jobs,
// about what the reference host completes in that time (4–6 jobs/s on
// both closed-loop workloads). The count is fixed rather than the
// window's length, so the tail percentile it allows (p80 of 60 jobs at
// 12 s) is the same on every commit; a slower commit takes longer.
const closedRate = 5.0

// burstRate is quote-burst's offered load in arrivals per second:
// under a third of the capacity measured on the reference host (see
// README.md), so the queue stays short and latency, not backlog, is
// what the run measures.
const burstRate = 40.0
