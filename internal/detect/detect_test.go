package detect

import (
	"strings"
	"testing"
	"time"

	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// workers gives a test a fixed set of goroutines (distinct gids) that
// execute closures one at a time, so detector scenarios are fully
// deterministic.
type workers struct {
	chans []chan func()
	done  chan struct{}
}

func newWorkers(n int) *workers {
	w := &workers{done: make(chan struct{})}
	for i := 0; i < n; i++ {
		ch := make(chan func())
		w.chans = append(w.chans, ch)
		go func() {
			for f := range ch {
				f()
				w.done <- struct{}{}
			}
		}()
	}
	return w
}

func (w *workers) run(i int, f func()) {
	w.chans[i] <- f
	<-w.done
}

func (w *workers) gid(i int) uint64 {
	var g uint64
	w.run(i, func() { g = locks.GoroutineID() })
	return g
}

func (w *workers) stop() {
	for _, ch := range w.chans {
		close(ch)
	}
}

func TestEraserUnprotectedWriteWriteRace(t *testing.T) {
	d := New(WithHappensBefore(false))
	sp := memory.NewSpace()
	d.Instrument(sp)
	c := memory.NewCell(sp, "x.f", 0)
	w := newWorkers(2)
	defer w.stop()
	w.run(0, func() { c.Store("Test1.java:15", 1) })
	w.run(1, func() { c.Store("Test1.java:20", 2) })
	races := d.ReportsOf(KindRace)
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1\n%s", len(races), d.FormatAll())
	}
	r := races[0]
	if r.Var != "x.f" || r.Site2 != "Test1.java:20" {
		t.Fatalf("unexpected report: %+v", r)
	}
}

func TestEraserConsistentLockingNoRace(t *testing.T) {
	d := New(WithHappensBefore(false))
	sp := memory.NewSpace()
	m := locks.NewMutex("l")
	d.Instrument(sp, m)
	c := memory.NewCell(sp, "y", 0)
	w := newWorkers(2)
	defer w.stop()
	for i := 0; i < 2; i++ {
		i := i
		for j := 0; j < 3; j++ {
			w.run(i, func() {
				m.Lock()
				c.Store("s", int64(i))
				m.Unlock()
			})
		}
	}
	if races := d.ReportsOf(KindRace); len(races) != 0 {
		t.Fatalf("false positive: %s", d.FormatAll())
	}
}

func TestEraserReadSharingNoRace(t *testing.T) {
	d := New(WithHappensBefore(false))
	sp := memory.NewSpace()
	d.Instrument(sp)
	c := memory.NewCell(sp, "cfg", 0)
	w := newWorkers(3)
	defer w.stop()
	// Initialization by one thread, then read-only sharing: Eraser's
	// state machine must not report.
	w.run(0, func() { c.Store("init", 42) })
	w.run(1, func() { c.Load("r1") })
	w.run(2, func() { c.Load("r2") })
	if races := d.ReportsOf(KindRace); len(races) != 0 {
		t.Fatalf("read sharing flagged: %s", d.FormatAll())
	}
}

func TestEraserWriteAfterReadShareRace(t *testing.T) {
	d := New(WithHappensBefore(false))
	sp := memory.NewSpace()
	d.Instrument(sp)
	c := memory.NewCell(sp, "z", 0)
	w := newWorkers(2)
	defer w.stop()
	w.run(0, func() { c.Store("w0", 1) })
	w.run(1, func() { c.Load("r1") })
	w.run(1, func() { c.Store("w1", 2) }) // unprotected write-share
	if races := d.ReportsOf(KindRace); len(races) != 1 {
		t.Fatalf("races = %d, want 1", len(races))
	}
}

func TestHBForkEdgeSuppressesFalseRace(t *testing.T) {
	sp := memory.NewSpace()
	w := newWorkers(2)
	defer w.stop()
	parent, child := w.gid(0), w.gid(1)

	// Without a fork edge the two accesses look concurrent.
	d1 := New(WithEraser(false))
	sp.Trace(d1)
	c1 := memory.NewCell(sp, "a", 0)
	w.run(0, func() { c1.Store("p", 1) })
	w.run(1, func() { c1.Store("c", 2) })
	if len(d1.ReportsOf(KindRace)) != 1 {
		t.Fatalf("expected race without fork edge:\n%s", d1.FormatAll())
	}

	// With a fork edge the same pattern is ordered.
	d2 := New(WithEraser(false))
	sp.Trace(d2)
	c2 := memory.NewCell(sp, "b", 0)
	w.run(0, func() { c2.Store("p", 1) })
	d2.ForkEdge(parent, child)
	w.run(1, func() { c2.Store("c", 2) })
	if races := d2.ReportsOf(KindRace); len(races) != 0 {
		t.Fatalf("fork edge ignored: %s", d2.FormatAll())
	}
}

func TestHBJoinEdgeOrdersChildThenParent(t *testing.T) {
	sp := memory.NewSpace()
	w := newWorkers(2)
	defer w.stop()
	parent, child := w.gid(0), w.gid(1)
	d := New(WithEraser(false))
	sp.Trace(d)
	c := memory.NewCell(sp, "j", 0)
	w.run(1, func() { c.Store("child", 1) })
	d.JoinEdge(parent, child)
	w.run(0, func() { c.Store("parent", 2) })
	if races := d.ReportsOf(KindRace); len(races) != 0 {
		t.Fatalf("join edge ignored: %s", d.FormatAll())
	}
}

func TestHBLockSynchronizedNoRace(t *testing.T) {
	sp := memory.NewSpace()
	m := locks.NewMutex("hl")
	d := New(WithEraser(false))
	d.Instrument(sp, m)
	c := memory.NewCell(sp, "h", 0)
	w := newWorkers(2)
	defer w.stop()
	w.run(0, func() { m.Lock(); c.Store("s0", 1); m.Unlock() })
	w.run(1, func() { m.Lock(); c.Store("s1", 2); m.Unlock() })
	if races := d.ReportsOf(KindRace); len(races) != 0 {
		t.Fatalf("HB false positive under lock: %s", d.FormatAll())
	}
}

func TestHBConcurrentReadsThenWrite(t *testing.T) {
	sp := memory.NewSpace()
	d := New(WithEraser(false))
	sp.Trace(d)
	c := memory.NewCell(sp, "rr", 0)
	w := newWorkers(3)
	defer w.stop()
	w.run(0, func() { c.Load("r0") })
	w.run(1, func() { c.Load("r1") })
	w.run(2, func() { c.Store("w2", 1) })
	races := d.ReportsOf(KindRace)
	if len(races) < 2 {
		t.Fatalf("write after concurrent reads: races = %d, want >= 2\n%s",
			len(races), d.FormatAll())
	}
}

func TestContentionReport(t *testing.T) {
	d := New()
	m := locks.NewMutex("csList")
	m.Observe(d)
	w := newWorkers(2)
	defer w.stop()
	w.run(0, func() { m.LockAt("AsyncAppender.java:100") })
	// Worker 1 tries to lock while held; use TryLock-like probe via a
	// goroutine that will block, so run it async and release.
	done := make(chan struct{})
	go func() {
		m.LockAt("AsyncAppender.java:309")
		m.Unlock()
		close(done)
	}()
	// The BeforeLock hook fires before blocking; wait for the report
	// (bounded, so a missing report fails below instead of hanging).
	for deadline := time.Now().Add(5 * time.Second); len(d.ReportsOf(KindContention)) == 0 &&
		time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	w.run(0, func() { m.Unlock() })
	<-done
	cont := d.ReportsOf(KindContention)
	if len(cont) != 1 {
		t.Fatalf("contentions = %d, want 1\n%s", len(cont), d.FormatAll())
	}
	r := cont[0]
	if r.Site1 != "AsyncAppender.java:309" || r.Site2 != "AsyncAppender.java:100" {
		t.Fatalf("contention sites: %+v", r)
	}
	if !strings.Contains(r.Format(), "Lock contention:") {
		t.Fatalf("format: %s", r.Format())
	}
}

func TestLockOrderCycleReport(t *testing.T) {
	d := New()
	factory := locks.NewMutex("this")
	csList := locks.NewMutex("csList")
	factory.Observe(d)
	csList.Observe(d)
	w := newWorkers(2)
	defer w.stop()
	// Thread 0: csList then factory (clientConnectionFinished path).
	w.run(0, func() {
		csList.LockAt("SocketClientFactory.java:623")
		//cbvet:ignore lockorder intentional inversion: this test feeds the runtime detector the Jigsaw cycle
		factory.LockAt("SocketClientFactory.java:574")
		factory.Unlock()
		csList.Unlock()
	})
	// Thread 1: factory then csList (killClients path).
	w.run(1, func() {
		factory.LockAt("SocketClientFactory.java:867")
		//cbvet:ignore lockorder intentional inversion: this test feeds the runtime detector the Jigsaw cycle
		csList.LockAt("SocketClientFactory.java:872")
		csList.Unlock()
		factory.Unlock()
	})
	dl := d.ReportsOf(KindLockOrder)
	if len(dl) != 1 {
		t.Fatalf("lock-order reports = %d, want 1\n%s", len(dl), d.FormatAll())
	}
	out := dl[0].Format()
	if !strings.Contains(out, "Deadlock found:") {
		t.Fatalf("format: %s", out)
	}
}

func TestRaceReportFormatMatchesPaper(t *testing.T) {
	r := Report{Kind: KindRace, Var: "x.f", Site1: "sample/Test1.java:15", Site2: "sample/Test1.java:20"}
	got := r.Format()
	want := "Data race detected between\n  access of x.f at sample/Test1.java:15, and\n  access of x.f at sample/Test1.java:20."
	if got != want {
		t.Fatalf("format:\n%s\nwant:\n%s", got, want)
	}
}

func TestDeduplication(t *testing.T) {
	d := New(WithHappensBefore(false))
	sp := memory.NewSpace()
	d.Instrument(sp)
	c := memory.NewCell(sp, "dup", 0)
	w := newWorkers(2)
	defer w.stop()
	for k := 0; k < 5; k++ {
		w.run(0, func() { c.Store("sA", 1) })
		w.run(1, func() { c.Store("sB", 2) })
	}
	if races := d.ReportsOf(KindRace); len(races) != 1 {
		t.Fatalf("dedup failed: %d reports", len(races))
	}
}

func TestSummaryAndKinds(t *testing.T) {
	d := New()
	if s := d.Summary(); !strings.Contains(s, "data race: 0") {
		t.Fatalf("summary: %s", s)
	}
	if KindRace.String() != "data race" || KindContention.String() != "lock contention" ||
		KindLockOrder.String() != "deadlock" || Kind(9).String() != "unknown" {
		t.Fatal("Kind.String broken")
	}
	if (Report{Kind: Kind(9)}).Format() != "unknown report" {
		t.Fatal("unknown format broken")
	}
}

func TestReportKeyNormalizesSymmetricSites(t *testing.T) {
	a := Report{Kind: KindRace, Var: "v", Site1: "b", Site2: "a"}
	b := Report{Kind: KindRace, Var: "v", Site1: "a", Site2: "b"}
	if a.Key() != b.Key() {
		t.Fatal("symmetric race keys differ")
	}
	c := Report{Kind: KindLockOrder, Var: "v", Site1: "b", Site2: "a"}
	e := Report{Kind: KindLockOrder, Var: "v", Site1: "a", Site2: "b"}
	if c.Key() == e.Key() {
		t.Fatal("lock-order keys must preserve site order")
	}
}

func TestBothDetectorsTogether(t *testing.T) {
	d := New()
	sp := memory.NewSpace()
	d.Instrument(sp)
	c := memory.NewCell(sp, "both", 0)
	w := newWorkers(2)
	defer w.stop()
	w.run(0, func() { c.Store("sA", 1) })
	w.run(1, func() { c.Store("sB", 2) })
	// Both detectors fire, but dedup folds identical (kind,var,sites).
	races := d.ReportsOf(KindRace)
	if len(races) == 0 {
		t.Fatalf("no race from combined detectors")
	}
}
