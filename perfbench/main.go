// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time and prints its metrics; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the run records spans around every call the
// benchmark makes into a layer and reports the per-layer metrics and
// the tracing overhead instead. See README.md for the workloads and
// the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cbreak/internal/apps/appkit"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units; BENCHMARK.json declares the same list.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"repro_rate", "ratio"},
	{"mtte_p50_ms", "ms"},
	{"mtte_p90_ms", "ms"},
}

// perLayer lists the per-layer metrics a traced run reports. A layer a
// workload does not exercise reads 0 there.
var perLayer = []struct{ Name, Unit string }{
	{"core.arrivals", "count"},
	{"core.local_false", "count"},
	{"core.postpones", "count"},
	{"core.hits", "count"},
	{"core.timeouts", "count"},
	{"core.sheds", "count"},
	{"core.hit_ratio", "ratio"},
	{"core.wait_ms", "ms"},
	{"core.arrival_ns", "ns"},
	{"core.overhead_ratio", "ratio"},
	{"apps.bare_task_us", "us"},
	{"apps.natural_bug_rate", "ratio"},
	{"apps.served", "count"},
	{"apps.shed", "count"},
	{"apps.backend_errors", "count"},
	{"waitgraph.confirmed", "count"},
	{"waitgraph.confirm_ms", "ms"},
	{"harness.trial_overhead_ms", "ms"},
	{"harness.infra_failures", "count"},
	{"telemetry.records", "count"},
	{"telemetry.sub_drops", "count"},
	{"telemetry.scrape_ms_p50", "ms"},
	{"telemetry.scrape_ms_max", "ms"},
	{"journal.append_us_p50", "us"},
	{"journal.append_us_p99", "us"},
	{"journal.records", "count"},
	{"journal.bytes", "bytes"},
	{"journal.errors", "count"},
	{"netchaos.conns", "count"},
	{"netchaos.faults", "count"},
	{"netchaos.hop_us", "us"},
	{"httpd.direct_us", "us"},
	{"mysql.direct_us", "us"},
	{"trace.spans", "count"},
	{"trace.overhead_ops_ratio", "ratio"},
	{"trace.overhead_p50_ratio", "ratio"},
	{"self_ms.phase", "ms"},
	{"self_ms.episode", "ms"},
	{"self_ms.montecarlo.Run", "ms"},
	{"self_ms.harness.RunTrialCtx", "ms"},
	{"self_ms.appboot.StartApp", "ms"},
	{"self_ms.netchaos.Start", "ms"},
	{"self_ms.netchaos.Client.Do", "ms"},
	{"self_ms.sink.Open", "ms"},
	{"self_ms.sink.RecordEvent", "ms"},
	{"self_ms.sink.RecordIncident", "ms"},
	{"self_ms.sink.Close", "ms"},
	{"self_ms.sink.Replay", "ms"},
	{"self_ms.telemetry.WritePrometheus", "ms"},
}

// runCfg is what every workload is handed.
type runCfg struct {
	Seed    int64
	Dur     time.Duration // measured time of the untraced run
	Workers int           // worker goroutines or connections: nproc
	Out     string        // scratch directory for journals and span files
}

// Report is one workload run's outcome.
type Report struct {
	Attempted, Failed int64
	Problems          []string // failed output checks
	E2E               map[string]float64
	Layer             map[string]float64
	Bases             []string // the base of every ratio and the n of every percentile
}

func newReport() *Report {
	return &Report{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *Report) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *Report) base(format string, args ...any) {
	r.Bases = append(r.Bases, fmt.Sprintf(format, args...))
}

// setTails stores d's median as p50Name and its tail as tailName, at
// want or, when the sample is too small for want, at the lower
// percentile TailQuantile allows; a base line states which and n.
func (r *Report) setTails(d *Dist, p50Name, tailName string, want float64) {
	r.E2E[p50Name] = d.Quantile(0.5)
	tail, q, ok := d.Tail(want)
	if !ok {
		r.problem("%s: %d samples, fewer than the %d a tail needs", tailName, d.N(), 2*minBeyond)
		return
	}
	r.E2E[tailName] = tail
	r.base("%s, %s: %s of n=%d", p50Name, tailName, pct(q), d.N())
}

// setWindowedTails is setTails for a run that the host's speed drifts
// through. It cuts d, in time order, into windows just large enough for
// the tail rule at want, and stores the median over the windows of each
// window's median and tail. A busy stretch of the host then moves a
// minority of the windows instead of the whole tail. A sample too small
// for one window falls back to setTails.
func (r *Report) setWindowedTails(d *Dist, p50Name, tailName string, want float64) {
	size := WindowSize(want)
	if d.N() < size {
		r.setTails(d, p50Name, tailName, want)
		return
	}
	var k int
	r.E2E[p50Name], k = d.WindowMedian(0.5, size)
	r.E2E[tailName], _ = d.WindowMedian(want, size)
	r.base("%s, %s: median over %d windows of ≥%d samples (n=%d) of each window's p50 and %s",
		p50Name, tailName, k, size, d.N(), pct(want))
}

// workloads maps each workload name to its runner. A runner measures
// the untraced end-to-end metrics into rep.E2E; with tr non-nil it
// also measures the per-layer metrics into rep.Layer.
var workloads = map[string]func(c runCfg, tr *Tracer, rep *Report) error{
	"hotloop": runHotloop,
	"repro":   runRepro,
	"serve":   runServe,
}

func main() {
	workload := flag.String("workload", "", "hotloop, repro or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "scratch directory")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload hotloop|repro|serve -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	c := runCfg{Seed: *seed, Dur: time.Duration(*seconds) * time.Second,
		Workers: runtime.NumCPU(), Out: *out}
	appkit.SeedJitter(c.Seed)

	host := fingerprint(c.Seed)
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)

	var tr *Tracer
	if *trace == 1 {
		tr = NewTracer()
	}
	rep := newReport()
	if err := run(c, tr, rep); err != nil {
		fatal(err)
	}
	metrics := map[string]Metric{}
	if tr == nil {
		for _, m := range endToEnd {
			v, ok := rep.E2E[m.Name]
			if !ok {
				rep.problem("metric %s was not measured", m.Name)
			}
			metrics[m.Name] = Metric{v, m.Unit}
		}
	} else {
		spans := tr.Spans()
		self := SelfTimes(spans)
		rep.Layer["trace.spans"] = float64(len(spans))
		for name, ns := range self {
			rep.Layer["self_ms."+name] = float64(ns) / 1e6
		}
		for _, m := range perLayer {
			metrics[m.Name] = Metric{rep.Layer[m.Name], m.Unit}
		}
		path := filepath.Join(c.Out, *workload+".spans.json")
		if err := writeTrace(path, traceFile{Host: host, Workload: *workload,
			PerLayer: rep.Layer, SelfNS: self, Spans: spans}); err != nil {
			fatal(err)
		}
		fmt.Printf("spans %d written to %s\n", len(spans), path)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "output check failed:", p)
	}
	correct := len(rep.Problems) == 0
	if !correct {
		metrics = map[string]Metric{}
	} else {
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
		}
		fmt.Printf("fail_ratio %d/%d\n", rep.Failed, rep.Attempted)
		for _, b := range rep.Bases {
			fmt.Println("base", b)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
