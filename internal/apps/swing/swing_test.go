package swing

import (
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

func TestUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	u := union(a, b)
	if u != (Rect{0, 0, 15, 15}) {
		t.Fatalf("union = %+v", u)
	}
	if union(Rect{}, b) != b {
		t.Fatal("union with empty should return the other rect")
	}
}

func TestRepaintPipeline(t *testing.T) {
	cfg := quietCfg()
	rm := NewRepaintManager(cfg)
	comp := NewComponent("c", Rect{0, 0, 100, 100})
	rm.AddDirtyRegion(comp, Rect{0, 0, 10, 10})
	rm.AddDirtyRegion(comp, Rect{20, 20, 10, 10})
	if n := rm.PaintDirtyRegions(); n != 1 {
		t.Fatalf("painted %d regions, want 1 (merged)", n)
	}
	if rm.Painted() != 1 {
		t.Fatalf("Painted = %d", rm.Painted())
	}
	if n := rm.PaintDirtyRegions(); n != 0 {
		t.Fatalf("second paint repainted %d", n)
	}
}

func TestCaretBlinkMarksDirty(t *testing.T) {
	cfg := quietCfg()
	rm := NewRepaintManager(cfg)
	text := NewCaretComponent("t", Rect{0, 0, 200, 20})
	caret := NewCaret(text, rm)
	caret.Blink()
	if n := rm.PaintDirtyRegions(); n != 1 {
		t.Fatalf("blink did not mark dirty: painted %d", n)
	}
	if text.mu.Class() != CaretClass {
		t.Fatal("caret component lock class wrong")
	}
}

func TestCleanRunFinishes(t *testing.T) {
	e := core.NewEngine()
	e.SetEnabled(false)
	r := Run(Config{Engine: e, Events: 20, PaintCycles: 3, StallAfter: 5 * time.Second})
	if r.Status != appkit.OK {
		t.Fatalf("clean run: %s", r)
	}
}

func TestDeadlockBreakpointReproducesStall(t *testing.T) {
	stalls := 0
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Breakpoint: true, Timeout: 100 * time.Millisecond,
			StallAfter: time.Second})
		if r.Status == appkit.Stall {
			stalls++
			// A stall is the lock cycle the breakpoint forced, never
			// the pauses alone perturbing the schedule into it.
			if !r.BPHit {
				t.Fatalf("run %d stalled without a breakpoint hit: %s", i, r)
			}
		}
	}
	if stalls < 4 {
		t.Fatalf("deadlock reproduced only %d/5 with a long pause", stalls)
	}
}

func TestRefinedKeepsProbabilityCutsOverhead(t *testing.T) {
	// Section 6.3: with isLockTypeHeld(BasicCaret) the non-caret
	// contexts stop pausing; the deadlock still reproduces and the run
	// reaches the stall sooner or does equivalent work in less time.
	timeout := 50 * time.Millisecond

	start := time.Now()
	e1 := core.NewEngine()
	r1 := Run(Config{Engine: e1, Breakpoint: true, Timeout: timeout,
		StallAfter: 4 * time.Second})
	unrefinedTime := time.Since(start)

	start = time.Now()
	reproduced := false
	var refinedTime time.Duration
	// The refined variant pauses only in caret contexts, so a single
	// run can miss the rendezvous under heavy test-machine load; allow
	// a few attempts (each run is independent, like the paper's 100).
	for attempt := 0; attempt < 4 && !reproduced; attempt++ {
		e2 := core.NewEngine()
		r2 := Run(Config{Engine: e2, Breakpoint: true, Timeout: timeout, Refined: true,
			StallAfter: 4 * time.Second})
		reproduced = r2.Status == appkit.Stall
	}
	refinedTime = time.Since(start)

	if reproduced && r1.Status == appkit.Stall {
		// Both reproduce; the refined run must not be drastically
		// slower to reach the deadlock.
		if refinedTime > unrefinedTime*8 {
			t.Fatalf("refined runs slower: %v vs %v", refinedTime, unrefinedTime)
		}
	}
	if !reproduced {
		t.Fatal("refined configuration did not reproduce in 4 attempts")
	}
}

func TestPauseSweepLongPauseAtLeastAsGood(t *testing.T) {
	prob := func(timeout time.Duration) int {
		stalls := 0
		for i := 0; i < 6; i++ {
			e := core.NewEngine()
			r := Run(Config{Engine: e, Breakpoint: true, Timeout: timeout,
				StallAfter: 800 * time.Millisecond, EventJitter: 3 * time.Millisecond})
			if r.Status == appkit.Stall {
				stalls++
			}
		}
		return stalls
	}
	long := prob(50 * time.Millisecond)
	if long < 4 {
		t.Fatalf("long pause reproduced only %d/6", long)
	}
}
