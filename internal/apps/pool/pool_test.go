package pool

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

func TestBorrowReturnBasics(t *testing.T) {
	p := NewPool(2, quietCfg())
	a := p.Borrow()
	b := p.Borrow()
	if a == nil || b == nil || a == b {
		t.Fatal("borrow broken")
	}
	if p.Active() != 2 || p.FreeCount() != 0 {
		t.Fatalf("active=%d free=%d", p.Active(), p.FreeCount())
	}
	p.Return(a)
	if p.Active() != 1 || p.FreeCount() != 1 {
		t.Fatalf("after return: active=%d free=%d", p.Active(), p.FreeCount())
	}
	c := p.Borrow()
	if c != a {
		t.Fatal("returned object not reused")
	}
}

func TestBorrowBlocksUntilReturn(t *testing.T) {
	p := NewPool(1, quietCfg())
	a := p.Borrow()
	got := make(chan *Object, 1)
	go func() { got <- p.Borrow() }()
	select {
	case <-got:
		t.Fatal("borrow from exhausted pool returned immediately")
	case <-time.After(20 * time.Millisecond):
	}
	p.Return(a)
	select {
	case obj := <-got:
		if obj != a {
			t.Fatal("wrong object")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("borrower never woke after return")
	}
}

func TestMissedNotifyBreakpointReproducesStall(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Breakpoint: true,
			Timeout: 500 * time.Millisecond, StallAfter: 300 * time.Millisecond})
		if r.Status != appkit.Stall || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestMissedNotifyStallReportedWhenReturnFinishes(t *testing.T) {
	const stallAfter = 300 * time.Millisecond
	for i := 0; i < 5; i++ {
		r := Run(Config{Engine: core.NewEngine(), Breakpoint: true,
			Timeout: 500 * time.Millisecond, StallAfter: stallAfter})
		if r.Status != appkit.Stall || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
		if r.Elapsed >= stallAfter/2 {
			t.Fatalf("run %d waited %v of its %v stall deadline: %s", i, r.Elapsed, stallAfter, r)
		}
		if !strings.Contains(r.Detail, `"pool.available"`) {
			t.Fatalf("run %d: detail does not name the stranded cond: %q", i, r.Detail)
		}
	}
}

func TestWithoutBreakpointMostlyOK(t *testing.T) {
	bugs := 0
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		e.SetEnabled(false)
		if Run(Config{Engine: e, StallAfter: 500 * time.Millisecond}).Status.Buggy() {
			bugs++
		}
	}
	if bugs > 3 {
		t.Fatalf("stall manifested %d/10 without breakpoint", bugs)
	}
}
