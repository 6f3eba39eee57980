package main

import (
	"context"
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/harness"
)

// repro: the campaign path. Every Table 1 and Table 2 row runs with its
// breakpoint through harness.RunTrialCtx, each trial on a fresh engine
// with its own wait-graph supervisor and its jitter seeded from
// harness.TrialSeed. Runs are whole passes over all rows, so no row is
// ever dropped and a row that fails to reproduce (cache4j race1 at
// GOMAXPROCS ≥ 2) stays in repro_rate.

// trialDeadline bounds one trial; a trial that exceeds it is a
// TrialTimeout, an infrastructure failure.
const trialDeadline = 10 * time.Second

// reproSetups is how many cold-start trials set-up takes the median of.
const reproSetups = 5

// passTime is the nominal duration of one pass. A run makes a fixed
// number of passes for its duration, not as many as fit: the rows'
// stall deadlines put the trials in fixed duration classes (two rows
// stall for 1.2 s, four for 0.6 s), so a tail read at "10 samples
// beyond" lands on a different class when the pass count changes.
const passTime = 6 * time.Second

func passesFor(dur time.Duration) int { return max(1, int(dur/passTime)) }

// reproSpecs is one pass: every Table 1 and Table 2 row of the given
// variant (Table 2 has no base variant).
func reproSpecs(variant string) []harness.TrialSpec {
	var specs []harness.TrialSpec
	for _, table := range []string{"1", "2"} {
		for _, s := range harness.TableSpecs(table, 1) {
			if s.Key.Variant == variant {
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// reproAcc accumulates classified trials. Times to error are wall
// times around RunTrialCtx: a stall's Result.Elapsed is exactly the
// stall deadline, which hides what the caller actually waited.
type reproAcc struct {
	trials, manifested, infra, confirmed int
	lat, mtte, overhead, confirm         Dist
	stats                                []core.StatsSnapshot
}

// runTrial runs trial number pass of spec and classifies it.
func runTrial(c runCfg, tr *Tracer, parent int64, spec harness.TrialSpec, pass int, rep *Report, acc *reproAcc) {
	appkit.SeedJitter(harness.TrialSeed(c.Seed, spec.Key, pass))
	span := tr.Begin("harness.RunTrialCtx", parent, 0)
	start := time.Now()
	out := harness.RunTrialCtx(context.Background(), trialDeadline, spec)
	wall := time.Since(start)
	tr.End(span)

	res := out.Result
	acc.trials++
	if _, ok := appkit.ParseStatus(res.Status.String()); !ok {
		rep.problem("repro: %s trial %d: unclassified status %d", spec.Key, pass, int(res.Status))
	}
	acc.lat.Add(wall)
	acc.overhead.Add(wall - res.Elapsed)
	acc.stats = append(acc.stats, out.Stats...)
	switch {
	case res.Status.Infrastructure():
		acc.infra++
	case res.Status.Buggy():
		acc.manifested++
		acc.mtte.Add(wall)
	}
	if strings.HasPrefix(res.Detail, "wait-graph deadlock confirmed") {
		acc.confirmed++
		acc.confirm.Add(res.Elapsed)
	}
}

// reproPasses runs passes whole passes of specs and returns the
// accumulated trials and the measured time.
func reproPasses(c runCfg, tr *Tracer, specs []harness.TrialSpec, passes int, rep *Report) (*reproAcc, time.Duration) {
	phase := tr.Begin("phase", 0, 0)
	defer tr.End(phase)
	acc := &reproAcc{}
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, s := range specs {
			runTrial(c, tr, phase, s, pass, rep, acc)
		}
	}
	return acc, time.Since(start)
}

// reproMain measures the breakpoint passes into e2e. Set-up is building
// the trial list plus the first, cold trial, repeated.
func reproMain(c runCfg, tr *Tracer, dur time.Duration, rep, e2e *Report) *reproAcc {
	var setups []time.Duration
	for i := 0; i < reproSetups; i++ {
		start := time.Now()
		specs := reproSpecs(harness.VariantWith)
		runTrial(c, nil, 0, specs[0], -1-i, rep, &reproAcc{})
		setups = append(setups, time.Since(start))
	}
	e2e.E2E["setup_s"] = medianSeconds(setups)

	specs := reproSpecs(harness.VariantWith)
	acc, elapsed := reproPasses(c, tr, specs, passesFor(dur), rep)
	rep.Attempted += int64(acc.trials)
	rep.Failed += int64(acc.infra)
	if want := passesFor(dur) * len(specs); acc.trials != want {
		rep.problem("repro: %d trials, want %d", acc.trials, want)
	}
	e2e.E2E["ops_per_s"] = float64(acc.trials) / elapsed.Seconds()
	e2e.E2E["repro_rate"] = ratio(acc.manifested, acc.trials)
	e2e.base("ops_per_s: %d trials (%d passes of %d rows) in %.3fs",
		acc.trials, acc.trials/len(specs), len(specs), elapsed.Seconds())
	e2e.base("repro_rate: %d/%d breakpoint trials manifested the bug", acc.manifested, acc.trials)
	e2e.setTails(&acc.lat, "latency_p50_ms", "latency_p99_ms", 0.99)
	e2e.setTails(&acc.mtte, "mtte_p50_ms", "mtte_p90_ms", 0.90)
	return acc
}

func runRepro(c runCfg, tr *Tracer, rep *Report) error {
	if tr == nil {
		reproMain(c, nil, c.Dur, rep, rep)
		return nil
	}
	third := c.Dur / 3
	ref, traced := newReport(), newReport()
	reproMain(c, nil, third, rep, ref)
	acc := reproMain(c, tr, third, rep, traced)

	base, _ := reproPasses(c, tr, reproSpecs(harness.VariantBase), passesFor(third), rep)
	rep.Attempted += int64(base.trials)
	rep.Failed += int64(base.infra)
	// Table 1's overhead column, measured on its montecarlo row scaled
	// up: hotloop's bare and armed Runs.
	hotPairs(c, tr, third/2, rep)

	coreLayer(rep, acc.stats)
	rep.Layer["apps.natural_bug_rate"] = ratio(base.manifested, base.trials)
	rep.base("apps.natural_bug_rate: %d/%d base trials manifested the bug", base.manifested, base.trials)
	rep.Layer["waitgraph.confirmed"] = float64(acc.confirmed)
	rep.Layer["waitgraph.confirm_ms"] = acc.confirm.Quantile(0.5)
	rep.base("waitgraph.confirm_ms: p50 of n=%d", acc.confirm.N())
	rep.Layer["harness.trial_overhead_ms"] = acc.overhead.Quantile(0.5)
	rep.base("harness.trial_overhead_ms: p50 of n=%d", acc.overhead.N())
	rep.Layer["harness.infra_failures"] = float64(acc.infra + base.infra)
	traceOverhead(rep, ref, traced)
	return nil
}
