package main

// Layer replay for traced runs: each distinct spec of the workload is
// pushed through the layers' public functions, one call at a time,
// with a span around every call. Nothing here runs in untraced runs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/dist"
	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/financial"
	"github.com/ralab/are/internal/metrics"
	"github.com/ralab/are/internal/pricing"
	"github.com/ralab/are/internal/spec"
	"github.com/ralab/are/internal/store"
	"github.com/ralab/are/internal/yet"
)

// timedSink wraps one member of a sink stack and records a
// metrics.sink span, child of the run span, around every delivery. It
// wraps members only: a bare *core.FullYLT handed to the engine is
// type-asserted there, and wrapping it would change the run.
type timedSink struct {
	inner  core.Sink
	tr     *tracer
	parent int
	job    int
}

func (s *timedSink) Begin(ids []uint32, n int) error { return s.inner.Begin(ids, n) }

func (s *timedSink) Emit(l, t int, agg, occ float64) {
	t0 := time.Now()
	s.inner.Emit(l, t, agg, occ)
	s.tr.add("metrics.sink", t0, time.Now(), s.parent, s.job)
}

func (s *timedSink) EmitBatch(l, lo int, agg, occ []float64) {
	t0 := time.Now()
	s.inner.EmitBatch(l, lo, agg, occ)
	s.tr.add("metrics.sink", t0, time.Now(), s.parent, s.job)
}

// nullSink discards engine output, for runs timed without sinks.
type nullSink struct{}

func (nullSink) Begin([]uint32, int) error                { return nil }
func (nullSink) Emit(int, int, float64, float64)          {}
func (nullSink) EmitBatch(int, int, []float64, []float64) {}

// replayStats are the counters the replay keeps beside its spans.
type replayStats struct {
	occ, trials    int64 // gathered per traced pipeline run, summed
	sampledOcc     int64
	phases         core.PhaseBreakdown
	bytesPerOcc    float64 // computed from array sizes, not measured
	shardBytes     []float64
	journalPerJob  []float64
	storeDoneMS    []float64
	hitUS, parseUS []float64
}

// replayReps is how many times each cheap call is repeated per spec.
const replayReps = 5

// replay runs every base spec of w through the layers. Replay spans
// carry job ids past the service jobs' so the two never collide.
func replay(ctx context.Context, w *workload, tr *tracer, dir string) (*replayStats, error) {
	st := &replayStats{}
	for k, s := range w.base {
		job := 1_000_000 + k
		if err := replaySpec(ctx, s, tr, filepath.Join(dir, fmt.Sprintf("replay-%d", k)), job, st); err != nil {
			return nil, fmt.Errorf("replay spec %d: %w", k, err)
		}
	}
	return st, nil
}

func replaySpec(ctx context.Context, s *jobSpec, tr *tracer, dir string, job int, st *replayStats) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	js := s.js

	// spec: parse and validate the submitted body.
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		if _, err := spec.ParseJob(bytes.NewReader(s.body)); err != nil {
			return err
		}
		st.parseUS = append(st.parseUS, float64(time.Since(t0))/1e3)
	}

	// artifact: ELT and YET generation, engine compile, spill + map.
	root := tr.open("artifact.build", -1, job)
	for _, es := range js.Portfolio.ELTs {
		if es.Generate == nil {
			continue
		}
		terms := financial.Default()
		if es.Terms != nil && es.Terms.Participation != 0 {
			terms.Participation = es.Terms.Participation
		}
		t0 := time.Now()
		if _, err := elt.Generate(es.ID, elt.GenConfig{Seed: es.Generate.Seed, NumRecords: es.Generate.NumRecords,
			CatalogSize: js.Portfolio.CatalogSize, MeanLoss: es.Generate.MeanLoss, LossCV: es.Generate.LossCV,
			Sigma: es.Generate.Sigma, Terms: terms}); err != nil {
			return err
		}
		tr.add("artifact.elt_gen", t0, time.Now(), root, job)
	}
	t0 := time.Now()
	table, err := yet.Generate(yet.UniformSource(js.Portfolio.CatalogSize), js.YET.ToConfig())
	if err != nil {
		return err
	}
	tr.add("artifact.yet_gen", t0, time.Now(), root, job)
	p, catalog, err := js.BuildPortfolio()
	if err != nil {
		return err
	}
	kind := artifact.LookupKind(js.Lookup)
	t0 = time.Now()
	eng, err := core.NewEngine(p, catalog, kind)
	if err != nil {
		return err
	}
	tr.add("artifact.engine_compile", t0, time.Now(), root, job)
	t0 = time.Now()
	path := filepath.Join(dir, "table.yet")
	if err := yet.WriteFile(path, table); err != nil {
		return err
	}
	mapped, err := yet.Map(path)
	if err != nil {
		return err
	}
	tr.add("artifact.spill_map", t0, time.Now(), root, job)
	tr.finish(root)
	if err := mapped.Close(); err != nil {
		return err
	}

	// artifact: warm cache lookups.
	cache := artifact.NewCache(16)
	if _, _, err := artifact.EngineFor(cache, js); err != nil {
		return err
	}
	if _, _, err := artifact.TableFor(cache, js); err != nil {
		return err
	}
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		if _, _, err := artifact.EngineFor(cache, js); err != nil {
			return err
		}
		if _, _, err := artifact.TableFor(cache, js); err != nil {
			return err
		}
		st.hitUS = append(st.hitUS, float64(time.Since(t0))/1e3)
	}

	// core: sweep compile (a plain job compiles as one zero variant).
	variants := []core.Variant{{}}
	if js.Sweep != nil {
		variants = artifact.SweepVariants(js.Sweep)
	}
	t0 = time.Now()
	sweep, err := eng.CompileSweep(p, variants)
	if err != nil {
		return err
	}
	tr.add("core.sweep_compile", t0, time.Now(), -1, job)

	// core + metrics: the gather with timed sink members, one stack
	// per variant, as the service builds them.
	opt := core.Options{Workers: 1, Lookup: kind, Uncertainty: artifact.Uncertainty(js)}
	run := tr.open("core.run", -1, job)
	fulls := make([]*core.FullYLT, len(variants))
	members := make([]core.Sink, len(variants))
	for k := range variants {
		fulls[k] = core.NewFullYLT()
		members[k] = core.MultiSink{
			&timedSink{inner: metrics.NewSummarySink(), tr: tr, parent: run, job: job},
			&timedSink{inner: metrics.NewEPSink(js.Metrics.ReturnPeriods), tr: tr, parent: run, job: job},
			&timedSink{inner: fulls[k], tr: tr, parent: run, job: job},
		}
	}
	tr.restart(run)
	if js.Sweep != nil {
		_, err = sweep.RunPipelineContext(ctx, core.NewTableSource(table), core.NewVariantSinks(members...), opt)
	} else {
		_, err = eng.RunPipelineContext(ctx, core.NewTableSource(table), members[0], opt)
	}
	if err != nil {
		return err
	}
	tr.finish(run)
	st.occ += int64(table.NumOccurrences())
	st.trials += int64(table.NumTrials())

	// core: the sampled kernel, and a profiled pass for the Fig. 6b
	// phase split.
	sampled := opt
	sampled.Uncertainty = core.Uncertainty{Mode: core.UncertaintySampled, Seed: 7}
	t0 = time.Now()
	if _, err := eng.RunPipelineContext(ctx, core.NewTableSource(table), nullSink{}, sampled); err != nil {
		return err
	}
	tr.add("core.sampled_run", t0, time.Now(), -1, job)
	st.sampledOcc += int64(table.NumOccurrences())
	profiled := opt
	profiled.Profile = true
	ph, err := eng.RunPipelineContext(ctx, core.NewTableSource(table), nullSink{}, profiled)
	if err != nil {
		return err
	}
	st.phases.EventFetch += ph.EventFetch
	st.phases.ELTLookup += ph.ELTLookup
	st.phases.Financial += ph.Financial
	st.phases.LayerTerms += ph.LayerTerms
	// Bytes a direct gather reads per occurrence: the event id and
	// time from the YET, then one 8-byte loss per ELT of every layer.
	perOcc := 12.0
	for _, l := range p.Layers {
		perOcc += 8 * float64(len(l.ELTs))
	}
	st.bytesPerOcc = perOcc

	// pricing: one quote per layer × variant.
	if js.Metrics.Quotes {
		for k, v := range sweep.Variants() {
			res := fulls[k].Result()
			for li, l := range p.Layers {
				t0 := time.Now()
				if _, err := pricing.Price(res.YLT(li), pricing.Config{
					VolatilityMultiplier: js.Metrics.VolatilityMultiplier,
					ExpenseRatio:         js.Metrics.ExpenseRatio,
					OccLimit:             v.LayerTerms(l.LTerms).OccLimit,
				}); err != nil {
					return err
				}
				tr.add("pricing.price", t0, time.Now(), -1, job)
			}
		}
	}

	// store: journal a result-sized record per job on a scratch store.
	payload, err := json.Marshal(s.want)
	if err != nil {
		return err
	}
	sto, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < replayReps; i++ {
		id := fmt.Sprintf("j-%06d", i+1)
		now := time.Now()
		if err := sto.Submitted(id, "", s.body, now); err != nil {
			sto.Close()
			return err
		}
		if err := sto.Started(id, now); err != nil {
			sto.Close()
			return err
		}
		t0 := time.Now()
		if err := sto.Done(id, t0, payload); err != nil {
			sto.Close()
			return err
		}
		st.storeDoneMS = append(st.storeDoneMS, float64(time.Since(t0))/1e6)
	}
	st.journalPerJob = append(st.journalPerJob, float64(sto.Metrics().JournalBytes)/replayReps/1e3)
	if err := sto.Close(); err != nil {
		return err
	}

	// dist: the job's trial range in four shards, executed over the
	// warm cache, encoded as shard frames, then merged.
	base := *js
	base.Sweep = nil
	n := base.YET.Trials
	var shards []*dist.ShardResult
	for i := 0; i < 4; i++ {
		lo, hi := n*i/4, n*(i+1)/4
		if lo == hi {
			continue
		}
		t0 := time.Now()
		res, err := dist.ExecShard(ctx, cache, dist.ShardRequest{Job: &base, Lo: lo, Hi: hi, WantYLT: base.Metrics.Quotes}, 1)
		if err != nil {
			return err
		}
		tr.add("dist.shard", t0, time.Now(), -1, job)
		var buf bytes.Buffer
		if err := dist.EncodeShardResult(&buf, res); err != nil {
			return err
		}
		st.shardBytes = append(st.shardBytes, float64(buf.Len())/1e3)
		shards = append(shards, res)
	}
	t0 = time.Now()
	if err := mergeShards(n, shards); err != nil {
		return err
	}
	tr.add("dist.merge", t0, time.Now(), -1, job)
	return nil
}

// mergeShards folds shard states the way the coordinator does, through
// the public sink-state and YLT assembly functions.
func mergeShards(trials int, shards []*dist.ShardResult) error {
	sum := metrics.SummarySinkFromState(shards[0].Summary)
	ep, err := metrics.EPSinkFromState(shards[0].EP)
	if err != nil {
		return err
	}
	ylts := make([]core.ShardYLT, 0, len(shards))
	for i, r := range shards {
		if i > 0 {
			if err := sum.Merge(r.Summary); err != nil {
				return err
			}
			if err := ep.Merge(r.EP); err != nil {
				return err
			}
		}
		if r.YLT != nil {
			ylts = append(ylts, core.ShardYLT{Lo: r.Lo, State: *r.YLT})
		}
	}
	if len(ylts) == len(shards) {
		if _, err := core.AssembleResult(trials, ylts); err != nil {
			return err
		}
	}
	return nil
}
