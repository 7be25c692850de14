// Command perfbench is the repository's benchmark of the ared service.
// It starts the real server in-process, sends a seeded workload over
// HTTP, waits on each job's event stream, checks every answer against
// server.RunLocal, and prints every metric by name and unit; the last
// line of standard output is the JSON result. See README.md.
//
//	perfbench --workload portfolio-rollup --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool // smoke-test sizes (tests only)
	setups   int  // cold set-ups per untraced run
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: portfolio-rollup|pricing-sweep|quote-burst")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "measured window, seconds (closed loops: sized to take about that long)")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()
	if o.workload == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.setups = setupCycles
	res, diag, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"diagnostics": diag}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// setupCycles is how many cold set-ups an untraced run times; setup_s
// is their median.
const setupCycles = 5

// run executes one benchmark invocation and returns its result and
// diagnostics. An error means no result could be produced at all;
// wrong answers and failed jobs come back as Correct=false.
func run(o options) (*result, map[string]any, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	w, err := buildWorkload(o.workload, o.seed, o.seconds, o.tiny)
	if err != nil {
		return nil, nil, err
	}
	cal := newCalibrator()
	for i := 0; i < 3; i++ {
		cal.calibrate() // warm the table's pages and the CPUs' clocks
	}
	if err := computeOracle(w.base, w.fresh); err != nil {
		return nil, nil, err
	}
	quiesce()
	cal.samples, cal.idleCPU, cal.idleWall = nil, 0, 0
	r := &runner{o: o, w: w, cal: cal, dir: dir, diag: map[string]any{"workload": w.name, "seed": o.seed}}
	if o.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: r.attempted, Failed: len(r.failures), Metrics: r.metrics}
	r.diag["failed_share"] = float64(res.Failed) / float64(max(1, res.Attempted))
	r.diag["calibrations"] = len(cal.samples)
	r.diag["idle_busy_share"] = cal.idleBusyShare()
	if len(r.failures) > 0 {
		r.diag["failures"] = r.failures[:min(len(r.failures), 10)]
	}
	// A run whose idle intervals kept seeing CPU use was not measured
	// on an idle server: its figures would flatter a change that
	// leaves background work running.
	quiet := cal.idleBusyShare() <= quietShare
	res.Correct = len(r.failures) == 0 && quiet
	if !quiet {
		r.diag["invalid"] = "quiescence guard: the process kept using CPU while the server was idle"
	}
	return res, r.diag, nil
}

// quiesce returns freed memory to the OS between phases, so one phase's
// garbage neither inflates the next one's RSS nor runs GC inside it.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runner carries one invocation's state.
type runner struct {
	o         options
	w         *workload
	cal       *calibrator
	dir       string
	attempted int
	failures  []string
	metrics   map[string]metricValue
	diag      map[string]any
}

func (r *runner) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metricValue)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// check records one answered job: a failed, refused or wrong answer is
// a failure.
func (r *runner) check(s *jobSpec, o outcome) bool {
	r.attempted++
	err := o.err
	if err == nil {
		err = verify(s, o.result)
	}
	if err != nil {
		r.failures = append(r.failures, err.Error())
		return false
	}
	return true
}

// setup starts a fresh deployment on a cold cache and answers every
// base spec once; it returns the deployment and the raw time taken.
func (r *runner) setup(k int) (*service, time.Duration, error) {
	t0 := time.Now()
	svc, err := startService(r.w, fmt.Sprintf("%s/data-%d", r.dir, k))
	if err != nil {
		return nil, 0, err
	}
	outs := make([]outcome, len(r.w.base))
	for i, s := range r.w.base {
		outs[i] = svc.cli.run(s.body, svc.key(0))
	}
	raw := time.Since(t0)
	for i, s := range r.w.base {
		r.check(s, outs[i])
	}
	return svc, raw, nil
}

// measure runs the workload's traffic for one window: the closed loop
// for n jobs, or the open loop over sched.
func (r *runner) measure(svc *service, n int, sched []arrival, tr *tracer) ([]sample, []window, error) {
	if r.w.open {
		return openLoop(svc, sched, r.cal, tr)
	}
	s, w := closedLoop(svc, r.w, r.cal, n, tr)
	return s, w, nil
}

// done checks every sample and returns the successful ones.
func (r *runner) done(samples []sample) []sample {
	var ok []sample
	for _, s := range samples {
		if r.check(s.job, s.out) {
			ok = append(ok, s)
		}
	}
	return ok
}

func (r *runner) untraced() error {
	// The set-ups' memory is measured from here: the high-water mark
	// is lowered to what the process holds now (the calibration table,
	// the oracle's answers, the runtime), and that baseline is
	// subtracted from the mark the set-ups leave.
	baseRSS, err := resetPeakRSS()
	if err != nil {
		return err
	}
	steal := startSteal()
	var (
		setups []float64
		svc    *service
	)
	for k := 0; k < r.o.setups; k++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
			svc = nil
			quiesce()
		}
		r.cal.calibrate()
		s, raw, err := r.setup(k)
		if err != nil {
			return err
		}
		r.cal.calibrate()
		svc = s
		setups = append(setups, raw.Seconds())
	}
	setupAvail, err := steal.availability()
	if err != nil {
		return err
	}
	// Peak RSS is taken after the cold set-ups, before any steady
	// traffic: what building and holding the workload's artifacts
	// costs. Within the window the high-water mark follows the
	// collector's pacing, which varies with how many jobs the run
	// completes.
	peakRSS := peakRSSMB() - baseRSS
	windowSteal := startSteal()
	samples, windows, err := r.measure(svc, r.w.jobs, r.w.schedule, nil)
	avail, availErr := windowSteal.availability()
	stopErr := svc.stop()
	if err = errors.Join(err, availErr, stopErr); err != nil {
		return err
	}
	ok := r.done(samples)
	if len(ok) == 0 {
		return errors.New("no job completed in the measured window")
	}

	raw := make([]float64, len(ok))
	var occ int64
	var rawNs float64
	for i, s := range ok {
		raw[i] = float64(s.raw) / 1e6
		occ += s.job.occ
		rawNs += float64(s.raw)
	}
	var cpu time.Duration
	var alloc uint64
	for _, w := range windows {
		cpu += w.cpu
		alloc += w.alloc
	}
	n := float64(len(ok))
	pct, tail, found := tailPercentile(raw)
	if !found {
		// Too few jobs for the rule (only in runs of a few seconds):
		// report the slowest, flagged by percentile 100.
		pct, tail = 100, slices.Max(raw)
	}
	rawMocc := float64(occ) / 1e6 / (rawNs / 1e9)
	rawCPU := float64(cpu) / n / 1e6

	// Timed figures, CPU time included, are in reference-machine units
	// (calib.go).
	scale := calScale(r.cal.samples)
	r.set("setup_s", median(setups)*scale, "s")
	r.set("job_p50_ms", median(raw)*scale, "ms")
	r.set("job_tail_ms", tail*scale, "ms")
	r.set("mocc_per_s", rawMocc/scale, "Mocc/s")
	r.set("cpu_ms_per_job", rawCPU*scale, "ms")
	r.set("alloc_mb_per_job", float64(alloc)/n/1e6, "MB")
	r.set("peak_rss_mb", peakRSS, "MB")

	r.diag["jobs"] = len(ok)
	r.diag["tail_percentile"] = pct
	r.diag["tail_samples"] = len(ok)
	r.diag["baseline_rss_mb"] = baseRSS
	r.diag["raw"] = map[string]any{
		"setup_s_each":        setups,
		"setup_s":             median(setups),
		"job_p50_ms":          median(raw),
		"job_tail_ms":         tail,
		"mocc_per_s":          rawMocc,
		"cpu_ms_per_job":      rawCPU,
		"cal_ms":              median(r.cal.samples) / 1e6,
		"peak_rss_mb_at_exit": peakRSSMB(),
	}
	r.diag["cal_scale"] = scale
	// The steal correction is a diagnostic: wall-clock figures scaled
	// by the share of wanted CPU time the host granted.
	r.diag["availability"] = map[string]float64{"setup": setupAvail, "window": avail}
	r.diag["avail_scaled"] = map[string]float64{
		"setup_s":     median(setups) * setupAvail,
		"job_p50_ms":  median(raw) * avail,
		"job_tail_ms": tail * avail,
		"mocc_per_s":  rawMocc / avail,
	}
	r.diag["steal_pct"] = steal.pct()
	if r.w.open {
		r.diag["offered_rate_per_s"] = r.w.rate
		r.diag["send_lag_ms_p50"] = median(sendLags(samples))
	}
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sendLags(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.out.err == nil {
			out = append(out, float64(s.sendLag)/1e6)
		}
	}
	return out
}

// traced is the per-layer run: one set-up, an untraced and a traced
// half-window of the workload's traffic (their p50 ratio is the
// tracing overhead), server counters scraped around the traced half,
// then the layer replay.
func (r *runner) traced() error {
	steal := startSteal()
	tr := &tracer{}
	svc, _, err := r.setup(0)
	if err != nil {
		return err
	}
	half := secs(r.o.seconds / 2)
	halfJobs := max(1, r.w.jobs/2)
	var first, second []arrival
	for _, a := range r.w.schedule {
		if a.due < half {
			first = append(first, a)
		} else {
			a.due -= half
			second = append(second, a)
		}
	}
	plain, _, err := r.measure(svc, halfJobs, first, nil)
	if err != nil {
		svc.stop()
		return err
	}
	before, err := scrape(svc.cli)
	if err != nil {
		svc.stop()
		return err
	}
	traced, _, err := r.measure(svc, halfJobs, second, tr)
	if err != nil {
		svc.stop()
		return err
	}
	after, err := scrape(svc.cli)
	if err != nil {
		svc.stop()
		return err
	}
	if err := svc.stop(); err != nil {
		return err
	}
	okPlain, okTraced := r.done(plain), r.done(traced)
	if len(okPlain) == 0 || len(okTraced) == 0 {
		return errors.New("no job completed in a traced-run window")
	}
	rawMS := func(ss []sample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.raw) / 1e6
		}
		return out
	}
	var resultKB float64
	rejected := 0
	for _, s := range traced {
		if s.out.status == 429 {
			rejected++
		}
	}
	for _, s := range okTraced {
		resultKB += float64(len(s.out.result)) / 1e3
	}
	d := func(name string) float64 { return after[name] - before[name] }

	quiesce()
	st, err := replay(context.Background(), r.w, tr, r.dir)
	if err != nil {
		return err
	}

	r.set("spec.parse_us", median(st.parseUS), "us")
	r.set("artifact.elt_gen_ms", float64(tr.total("artifact.elt_gen"))/1e6/float64(len(r.w.base)), "ms")
	r.set("artifact.yet_gen_ms", median(tr.durationsMS("artifact.yet_gen")), "ms")
	r.set("artifact.engine_compile_ms", median(tr.durationsMS("artifact.engine_compile")), "ms")
	r.set("artifact.spill_map_ms", median(tr.durationsMS("artifact.spill_map")), "ms")
	r.set("artifact.hit_us", median(st.hitUS), "us")
	r.set("artifact.hit_ratio", ratio(d("ared_cache_hits_total"), d("ared_cache_hits_total")+d("ared_cache_misses_total")), "ratio")
	r.set("core.gather_ns_per_occ", float64(tr.selfTotal("core.run"))/float64(st.occ), "ns")
	shares := st.phases.Percentages()
	r.set("core.fetch_share", shares[0], "%")
	r.set("core.lookup_share", shares[1], "%")
	r.set("core.financial_share", shares[2], "%")
	r.set("core.layer_share", shares[3], "%")
	r.set("core.sweep_compile_ms", median(tr.durationsMS("core.sweep_compile")), "ms")
	r.set("core.sampled_ns_per_occ", float64(tr.total("core.sampled_run"))/float64(st.sampledOcc), "ns")
	r.set("core.bytes_per_occ", st.bytesPerOcc, "B")
	r.set("metrics.sink_ns_per_trial", float64(tr.total("metrics.sink"))/float64(st.trials), "ns")
	r.set("pricing.price_ms", median(tr.durationsMS("pricing.price")), "ms")
	r.set("server.submit_ms", median(tr.durationsMS("server.submit")), "ms")
	r.set("server.queue_wait_ms", median(tr.durationsMS("server.queue_wait")), "ms")
	r.set("server.run_ms", median(tr.durationsMS("server.run")), "ms")
	r.set("server.result_ms", median(tr.durationsMS("server.result")), "ms")
	r.set("server.result_kb", resultKB/float64(len(okTraced)), "KB")
	r.set("server.fused_batch_mean", ratio(d("ared_fused_jobs_total"), d("ared_fused_batches_total")), "count")
	r.set("store.done_ms", median(st.storeDoneMS), "ms")
	r.set("store.journal_kb_per_job", median(st.journalPerJob), "KB")
	r.set("tenant.rejected_share", ratio(float64(rejected), float64(len(traced))), "ratio")
	r.set("dist.shard_ms", median(tr.durationsMS("dist.shard")), "ms")
	r.set("dist.merge_ms", median(tr.durationsMS("dist.merge")), "ms")
	r.set("dist.shard_result_kb", median(st.shardBytes), "KB")
	r.set("dist.shards_retried", d("ared_cluster_shards_retried_total"), "count")
	r.set("bench.cal_ms", median(r.cal.samples)/1e6, "ms")
	r.set("bench.steal_pct", steal.pct(), "%")
	r.set("bench.send_lag_ms", median(sendLags(append(plain, traced...))), "ms")
	r.set("bench.trace_overhead", median(rawMS(okTraced))/median(rawMS(okPlain)), "ratio")
	r.diag["spans"] = len(tr.spans)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
