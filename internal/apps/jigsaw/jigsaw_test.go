package jigsaw

import (
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func quietCfg() *Config {
	e := core.NewEngine()
	e.SetEnabled(false)
	return &Config{Engine: e}
}

func TestFactorySetup(t *testing.T) {
	f := NewFactory(4, quietCfg())
	if got := f.idleCount.Load("t"); got != 4 {
		t.Fatalf("idleCount = %d", got)
	}
	if len(f.csList.clients) != 4 {
		t.Fatalf("clients = %d", len(f.csList.clients))
	}
}

func TestServe(t *testing.T) {
	f := NewFactory(2, quietCfg())
	resp := f.Serve(Request{Path: "/index"}, 0)
	if resp.Status != 200 || !strings.Contains(resp.Body, "/index") {
		t.Fatalf("resp = %+v", resp)
	}
	if f.requestsServed.Load("t") != 1 {
		t.Fatal("served counter not updated")
	}
}

func TestKillClients(t *testing.T) {
	f := NewFactory(3, quietCfg())
	if got := f.KillClients(); got != 3 {
		t.Fatalf("killed = %d", got)
	}
	if got := f.KillClients(); got != 0 {
		t.Fatalf("second kill = %d", got)
	}
}

func TestLogAccessAndShutdown(t *testing.T) {
	f := NewFactory(2, quietCfg())
	f.LogAccess(Request{Path: "/a"})
	f.Shutdown()
	if len(f.accessLog) != 2 || !strings.Contains(f.accessLog[0], "clients=2") {
		t.Fatalf("accessLog = %v", f.accessLog)
	}
}

func TestIdleCountRoundTrip(t *testing.T) {
	f := NewFactory(2, quietCfg())
	f.decrIdleCount(0)
	if f.idleCount.Load("t") != 1 {
		t.Fatal("decr broken")
	}
	f.incrIdleCount(0)
	if f.idleCount.Load("t") != 2 {
		t.Fatal("incr broken")
	}
}

func TestNotifyAwaitHappyPath(t *testing.T) {
	f := NewFactory(1, quietCfg())
	// idle > 0: await returns immediately.
	done := make(chan struct{})
	go func() { f.AwaitClientAvailable(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("await blocked despite availability")
	}
}

func reproduceStall(t *testing.T, bug Bug, runs int) (stalls, hits int) {
	t.Helper()
	for i := 0; i < runs; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: bug, Breakpoint: true,
			Timeout: 300 * time.Millisecond, StallAfter: 400 * time.Millisecond})
		if r.Status == appkit.Stall {
			stalls++
		}
		if r.BPHit {
			hits++
		}
	}
	return stalls, hits
}

func TestDeadlock1Reproduces(t *testing.T) {
	stalls, hits := reproduceStall(t, Deadlock1, 3)
	if stalls != 3 || hits != 3 {
		t.Fatalf("stalls=%d hits=%d", stalls, hits)
	}
}

func TestDeadlock2Reproduces(t *testing.T) {
	stalls, hits := reproduceStall(t, Deadlock2, 3)
	if stalls != 3 || hits != 3 {
		t.Fatalf("stalls=%d hits=%d", stalls, hits)
	}
}

func TestMissedNotifyReproduces(t *testing.T) {
	stalls, hits := reproduceStall(t, MissedNotify, 3)
	if stalls != 3 || hits != 3 {
		t.Fatalf("stalls=%d hits=%d", stalls, hits)
	}
}

func TestRace1StallReproduces(t *testing.T) {
	for i := 0; i < 3; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: Race1, Breakpoint: true,
			Timeout: 300 * time.Millisecond, StallAfter: 400 * time.Millisecond})
		if r.Status != appkit.Stall || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestMissedNotifyStallReportedWhenNotifierFinishes(t *testing.T) {
	const stallAfter = 400 * time.Millisecond
	for i := 0; i < 5; i++ {
		r := Run(Config{Engine: core.NewEngine(), Bug: MissedNotify, Breakpoint: true,
			Timeout: 300 * time.Millisecond, StallAfter: stallAfter})
		if r.Status != appkit.Stall || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
		if r.Elapsed >= stallAfter/2 {
			t.Fatalf("run %d waited %v of its %v stall deadline: %s", i, r.Elapsed, stallAfter, r)
		}
		if !strings.Contains(r.Detail, `"jigsaw.reap"`) {
			t.Fatalf("run %d: detail does not name the stranded cond: %q", i, r.Detail)
		}
	}
}

func TestRace1StallDetailNamesBarrier(t *testing.T) {
	r := Run(Config{Engine: core.NewEngine(), Bug: Race1, Breakpoint: true,
		Timeout: 300 * time.Millisecond, StallAfter: 400 * time.Millisecond})
	if r.Status != appkit.Stall || !r.BPHit {
		t.Fatalf("race1: %s", r)
	}
	if !strings.Contains(r.Detail, "barrier can no longer be met") {
		t.Fatalf("race1 detail = %q", r.Detail)
	}
}

func TestRace2Reproduces(t *testing.T) {
	for i := 0; i < 3; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: Race2, Breakpoint: true, Timeout: 300 * time.Millisecond})
		if r.Status != appkit.TestFail || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestWithoutBreakpointsMostlyOK(t *testing.T) {
	for _, bug := range []Bug{Deadlock1, Deadlock2, MissedNotify, Race1, Race2} {
		bugs := 0
		for i := 0; i < 5; i++ {
			e := core.NewEngine()
			e.SetEnabled(false)
			if Run(Config{Engine: e, Bug: bug, StallAfter: 500 * time.Millisecond}).Status.Buggy() {
				bugs++
			}
		}
		if bugs > 2 {
			t.Errorf("bug %v manifested %d/5 without breakpoints", bug, bugs)
		}
	}
}
