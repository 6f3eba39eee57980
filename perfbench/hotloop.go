package main

import (
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/montecarlo"
	"cbreak/internal/core"
	"cbreak/internal/harness"
)

// hotloop: the paper's "breakpoints left in production code" case at
// scale. Each operation is one montecarlo.Run of hotTasks one-step
// paths with the race1 breakpoint armed at the paper's Bound=10: ten
// tasks rendezvous, and every later task pays one local-false arrival
// plus one internal/locks acquire/release. No sink, bus consumer or
// network is attached, so those layers are bypassed. BENCHMARK.json
// does not gate on it: its wall time drifts with the host by more than
// the largest bound allows (README.md, "Why hotloop is not gated").
const (
	// hotTasks is the size of one Run. The lock substrate switches
	// between a fast and a slow regime every few hundred tasks, so a
	// 500-task Run takes 8 or 16 ms and the median of such Runs jumps
	// between the two; 5000-task Runs average over the switches.
	hotTasks = 5000
	hotSteps = 1 // few steps per path keeps the trigger site hot
	hotBound = 10
	// hotSetups is how many cold-start Runs set-up takes the median of.
	hotSetups = 15
)

func hotConfig(c runCfg, e *core.Engine, armed bool) montecarlo.Config {
	return montecarlo.Config{Engine: e, Breakpoint: armed, Timeout: harness.ShortPause,
		Bound: hotBound, Tasks: hotTasks, Steps: hotSteps, Workers: c.Workers}
}

// hotRun is one timed montecarlo.Run on a fresh engine.
type hotRun struct {
	res  appkit.Result
	wall time.Duration
	snap core.StatsSnapshot
}

func doHotRun(c runCfg, tr *Tracer, parent int64, armed bool) hotRun {
	e := core.NewEngine()
	span := tr.Begin("montecarlo.Run", parent, 0)
	start := time.Now()
	res := montecarlo.Run(hotConfig(c, e, armed))
	wall := time.Since(start)
	tr.End(span)
	return hotRun{res: res, wall: wall, snap: e.Stats(montecarlo.BPRace1).Snapshot()}
}

// check verifies one Run's output: every task yielded a result (the
// only tolerated failure is the race1 lost update itself), every task
// passed the trigger once, and an armed Run hit exactly Bound times.
// It reports whether the bug manifested and whether the output passed.
func (h hotRun) check(rep *Report, armed bool) (manifested, ok bool) {
	switch {
	case h.res.Status == appkit.OK:
	case h.res.Status == appkit.TestFail && strings.HasPrefix(h.res.Detail, "tasksDone counter lost updates"):
		manifested = true
	default:
		rep.problem("hotloop: montecarlo.Run: %v", h.res)
		return false, false
	}
	wantArrivals, wantHits := int64(0), int64(0)
	if armed {
		wantArrivals, wantHits = hotTasks, hotBound
	}
	if h.snap.Arrivals != wantArrivals || h.snap.Hits != wantHits {
		rep.problem("hotloop: armed=%v: %d arrivals, %d hits; want %d, %d",
			armed, h.snap.Arrivals, h.snap.Hits, wantArrivals, wantHits)
		return manifested, false
	}
	return manifested, true
}

// hotMain runs armed Runs back to back for dur and stores the
// end-to-end metrics in e2e. Set-up is the engine boot plus the first,
// cold Run, repeated and reported as the median.
func hotMain(c runCfg, tr *Tracer, dur time.Duration, rep *Report, e2e *Report) (layer []core.StatsSnapshot) {
	phase := tr.Begin("phase", 0, 0)
	defer tr.End(phase)
	var setups []time.Duration
	for i := 0; i < hotSetups; i++ {
		start := time.Now()
		h := doHotRun(c, tr, phase, true)
		setups = append(setups, time.Since(start))
		h.check(rep, true)
	}
	e2e.E2E["setup_s"] = medianSeconds(setups)

	var lat, mtte Dist
	var runs, manifested int
	start := time.Now()
	for time.Since(start) < dur {
		h := doHotRun(c, tr, phase, true)
		rep.Attempted++
		runs++
		m, ok := h.check(rep, true)
		if m {
			manifested++
			mtte.Add(h.wall)
		}
		if !ok {
			rep.Failed++
		}
		lat.Add(h.wall)
		layer = append(layer, h.snap)
	}
	elapsed := time.Since(start)
	e2e.E2E["ops_per_s"] = float64(runs*hotTasks) / elapsed.Seconds()
	e2e.E2E["repro_rate"] = ratio(manifested, runs)
	e2e.base("ops_per_s: %d armed tasks in %.3fs", runs*hotTasks, elapsed.Seconds())
	e2e.base("repro_rate: %d/%d armed Runs lost an update", manifested, runs)
	e2e.setTails(&lat, "latency_p50_ms", "latency_p99_ms", 0.99)
	e2e.setTails(&mtte, "mtte_p50_ms", "mtte_p90_ms", 0.90)
	return layer
}

func runHotloop(c runCfg, tr *Tracer, rep *Report) error {
	if tr == nil {
		hotMain(c, nil, c.Dur, rep, rep)
		return nil
	}
	third := c.Dur / 3
	ref, traced := newReport(), newReport()
	hotMain(c, nil, third, rep, ref)
	snaps := hotMain(c, tr, third, rep, traced)
	snaps = append(snaps, hotPairs(c, tr, third, rep)...)
	coreLayer(rep, snaps)
	traceOverhead(rep, ref, traced)
	return nil
}

// hotPairs prices the armed trigger site: bare and armed Runs alternate
// for dur, so both see the same machine state, and the difference is
// what the breakpoint costs. It returns the armed Runs' counters.
func hotPairs(c runCfg, tr *Tracer, dur time.Duration, rep *Report) (armed []core.StatsSnapshot) {
	phase := tr.Begin("phase", 0, 0)
	defer tr.End(phase)
	var bareWall, armedWall time.Duration
	var bareTasks, armedArrivals int64
	start := time.Now()
	for time.Since(start) < dur {
		b := doHotRun(c, tr, phase, false)
		a := doHotRun(c, tr, phase, true)
		rep.Attempted += 2
		if _, ok := b.check(rep, false); !ok {
			rep.Failed++
		}
		if _, ok := a.check(rep, true); !ok {
			rep.Failed++
		}
		bareWall += b.wall
		armedWall += a.wall
		bareTasks += hotTasks
		armedArrivals += a.snap.Arrivals
		armed = append(armed, a.snap)
	}
	w := float64(c.Workers)
	rep.Layer["core.arrival_ns"] = float64(armedWall-bareWall) * w / float64(armedArrivals)
	rep.Layer["core.overhead_ratio"] = float64(armedWall) / float64(bareWall)
	rep.Layer["apps.bare_task_us"] = float64(bareWall) / 1e3 * w / float64(bareTasks)
	rep.base("core.overhead_ratio: %d bare and %d armed Runs of %d tasks", len(armed), len(armed), hotTasks)
	return armed
}

// coreLayer sums engine counters over snapshots into the core.* metrics.
func coreLayer(rep *Report, snaps []core.StatsSnapshot) {
	var s core.StatsSnapshot
	for _, x := range snaps {
		s.Arrivals += x.Arrivals
		s.LocalFalses += x.LocalFalses
		s.Postpones += x.Postpones
		s.Hits += x.Hits
		s.Timeouts += x.Timeouts
		s.Sheds += x.Sheds
		s.TotalWait += x.TotalWait
	}
	rep.Layer["core.arrivals"] = float64(s.Arrivals)
	rep.Layer["core.local_false"] = float64(s.LocalFalses)
	rep.Layer["core.postpones"] = float64(s.Postpones)
	rep.Layer["core.hits"] = float64(s.Hits)
	rep.Layer["core.timeouts"] = float64(s.Timeouts)
	rep.Layer["core.sheds"] = float64(s.Sheds)
	rep.Layer["core.hit_ratio"] = ratio(int(s.Hits), int(s.Postpones))
	rep.Layer["core.wait_ms"] = float64(s.TotalWait) / 1e6
	rep.base("core.hit_ratio: %d hits/%d postpones", s.Hits, s.Postpones)
}

// traceOverhead compares the traced phase's end-to-end numbers with
// the untraced reference phase run just before it. Output checks of
// both phases were recorded in rep; the phases' own reports only hold
// their numbers, whose tails a short traced part may not support.
func traceOverhead(rep, untraced, traced *Report) {
	rep.Layer["trace.overhead_ops_ratio"] = untraced.E2E["ops_per_s"] / traced.E2E["ops_per_s"]
	rep.Layer["trace.overhead_p50_ratio"] = traced.E2E["latency_p50_ms"] / untraced.E2E["latency_p50_ms"]
	rep.base("tracing overhead: ops_per_s %.6g untraced vs %.6g traced; latency_p50_ms %.6g vs %.6g",
		untraced.E2E["ops_per_s"], traced.E2E["ops_per_s"],
		untraced.E2E["latency_p50_ms"], traced.E2E["latency_p50_ms"])
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
