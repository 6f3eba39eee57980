package main

import (
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	var d Dist
	for i := 1; i <= 10; i++ {
		d.AddMS(float64(11 - i)) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	var big Dist
	for i := 1; i <= 1000; i++ {
		big.AddMS(float64(i))
	}
	// 0.99·1000 is integral: the rank must not round up past 990.
	if got := big.Quantile(0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	var empty Dist
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestTailRuleKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		q      float64
		wantOK bool
	}{
		{19, 0.9, 0, false},
		{20, 0.9, 0.5, true},
		{40, 0.9, 0.75, true},
		{100, 0.9, 0.9, true},
		{160, 0.99, 0.9375, true},
		{1000, 0.99, 0.99, true},
		{5000, 0.99, 0.99, true},
	} {
		q, ok := TailQuantile(c.want, c.n)
		if ok != c.wantOK || q != c.q {
			t.Errorf("TailQuantile(%v, %d) = %v, %v; want %v, %v", c.want, c.n, q, ok, c.q, c.wantOK)
		}
		if !ok {
			continue
		}
		var d Dist
		for i := 1; i <= c.n; i++ {
			d.AddMS(float64(i))
		}
		v, _, _ := d.Tail(c.want)
		if beyond := c.n - int(v); beyond < minBeyond {
			t.Errorf("n=%d: tail %v has %d samples beyond it, want ≥ %d", c.n, v, beyond, minBeyond)
		}
	}
}

func TestWindowsKeepTheTailRule(t *testing.T) {
	if WindowSize(0.9) != 100 || WindowSize(0.99) != 1000 {
		t.Fatalf("window sizes %d, %d; want 100, 1000", WindowSize(0.9), WindowSize(0.99))
	}
	if probeBurst != WindowSize(0.9) {
		t.Errorf("a serve probe burst is %d boots, an MTTE window %d", probeBurst, WindowSize(0.9))
	}
	var d Dist
	for i := 0; i < 350; i++ {
		d.AddMS(float64(i)) // windows 0..115, 116..232, 233..349
	}
	ws := d.Windows(100)
	if len(ws) != 3 {
		t.Fatalf("%d windows of 350 samples, want 3", len(ws))
	}
	for i, w := range ws {
		v := w.Quantile(0.9)
		beyond := 0
		for _, x := range w.vals {
			if x > v {
				beyond++
			}
		}
		if w.N() < 100 || beyond < minBeyond {
			t.Errorf("window %d: %d samples, %d beyond its p90", i, w.N(), beyond)
		}
	}
	// The middle window holds 117 samples; its p90 is the 106th, 116+105.
	if v, k := d.WindowMedian(0.9, 100); v != 221 || k != 3 {
		t.Errorf("WindowMedian = %v over %d windows, want 221 over 3", v, k)
	}
	// Quantiles must not reorder the samples the windows are cut from.
	var r Dist
	for i := 200; i > 0; i-- {
		r.AddMS(float64(i))
	}
	r.Quantile(0.5)
	if first := r.Windows(100)[0].Quantile(0); first != 101 {
		t.Errorf("first window's minimum %v after a quantile, want 101", first)
	}
	if len((&Dist{}).Windows(100)) != 0 {
		t.Error("an empty sample gave windows")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "episode", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50) once: 40ms.
		{ID: 2, Parent: 1, Name: "netchaos.Client.Do", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "netchaos.Client.Do", Start: 30 * ms, End: 50 * ms},
		// A child sticking out of its parent only counts inside it.
		{ID: 4, Parent: 1, Name: "sink.Close", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 4, Name: "sink.Replay", Start: 95 * ms, End: 100 * ms},
	}
	self := SelfTimes(spans)
	for name, want := range map[string]int64{
		"episode":            50 * ms,
		"netchaos.Client.Do": 50 * ms,
		"sink.Close":         25 * ms,
		"sink.Replay":        5 * ms,
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, time.Duration(self[name]), time.Duration(want))
		}
	}
}

func TestUntracedTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0, 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer recorded span %d", id)
	}
	tr = NewTracer()
	p := tr.Begin("parent", 0, 7)
	c := tr.Begin("child", p, 7)
	open := tr.Begin("open", p, 0)
	tr.End(c)
	tr.End(p)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != p || spans[1].Req != 7 {
		t.Fatalf("spans = %+v; want parent and child closed, %d left open", spans, open)
	}
}
