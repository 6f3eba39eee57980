package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/netchaos"
)

func TestRequestSequenceIsSeeded(t *testing.T) {
	seq := func(seed int64, client int) []int {
		g := newReqGen(seed, client)
		out := make([]int, 64)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := seq(42, 0), seq(42, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 request %d: %d then %d", i, a[i], b[i])
		}
	}
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, seq(43, 0)) || same(a, seq(42, 1)) {
		t.Fatal("another seed or client gave the same request sequence")
	}
	var even int
	for _, p := range a {
		if strings.HasPrefix(stmtFor(p), "INSERT") {
			even++
		}
	}
	if even == 0 || even == len(a) {
		t.Fatalf("%d/%d requests write: the mix needs both INSERT and FLUSH LOGS", even, len(a))
	}
}

func TestProxyScheduleIsSeeded(t *testing.T) {
	c := runCfg{Seed: 99, Workers: 1, Out: t.TempDir()}
	describe := func(ep int) (int64, string) {
		topo, err := bootTopology(c, nil, 0, ep)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := topo.close(nil, 0); err != nil {
				t.Error(err)
			}
		}()
		s := topo.px.Schedule()
		return s.Seed(), s.Describe(16)
	}
	seed1, d1 := describe(3)
	seed2, d2 := describe(3)
	if seed1 != seed2 || d1 != d2 {
		t.Fatalf("same seed, different schedules: %d %q vs %d %q", seed1, d1, seed2, d2)
	}
	if want := appkit.DeriveSeed(99, 3); seed1 != want {
		t.Fatalf("schedule seed %d, want %d", seed1, want)
	}
	if d1 != netchaos.NewSchedule(seed1, netchaos.Faults{}).Describe(16) || strings.Contains(d1, "partition") {
		t.Fatalf("serve proxy is not fault-free:\n%s", d1)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units
// this program prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json has %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires its output checks to pass and every metric to be measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for seconds")
	}
	for _, name := range []string{"hotloop", "repro", "serve"} {
		for _, traced := range []bool{false, true} {
			c := runCfg{Seed: 7, Dur: 5 * time.Second, Workers: runtime.NumCPU(), Out: t.TempDir()}
			var tr *Tracer
			if traced {
				tr = NewTracer()
			}
			rep := newReport()
			if err := workloads[name](c, tr, rep); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(rep.Problems) > 0 {
				t.Errorf("%s traced=%v: output checks failed: %v", name, traced, rep.Problems)
			}
			if rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted nothing", name, traced)
			}
			if !traced {
				for _, m := range endToEnd {
					if v, ok := rep.E2E[m.Name]; !ok || v <= 0 {
						t.Errorf("%s: %s = %v (measured %v), want > 0", name, m.Name, v, ok)
					}
				}
				continue
			}
			if len(tr.Spans()) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
			if rep.Layer["trace.overhead_ops_ratio"] <= 0 {
				t.Errorf("%s: no tracing overhead measured", name)
			}
		}
	}
}
