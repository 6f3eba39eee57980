package waitgraph

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/locks"
)

// The locks registry is process-global and several tests here
// deliberately leak blocked goroutines (that is the condition under
// test), so every assertion scopes to the test's own lock names and
// every supervisor is started before its test creates trouble —
// pre-existing wreckage is baselined away.

func testSupervisor(e *core.Engine, cfg Config) *Supervisor {
	if cfg.Interval == 0 {
		cfg.Interval = time.Millisecond
	}
	return New(e, cfg)
}

func reportsMentioning(rs []Report, lock string) []Report {
	var out []Report
	for _, r := range rs {
		for _, l := range r.Locks {
			if l == lock {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func TestSupervisorConfirmsDeadlock(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	defer sup.Stop()

	cls := locks.NewClass("WGDeadlock")
	a := locks.NewClassMutex("wg-dl-A", cls)
	b := locks.NewClassMutex("wg-dl-B", cls)
	gids := make(chan uint64, 2)
	acquired := make(chan struct{}, 2)
	// Cross-acquisition deadlock, deliberately leaked.
	go func() {
		gids <- locks.GoroutineID()
		a.LockAt("siteA")
		acquired <- struct{}{}
		time.Sleep(20 * time.Millisecond)
		// Blocks forever.
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		b.LockAt("siteA2")
	}()
	go func() {
		gids <- locks.GoroutineID()
		b.LockAt("siteB")
		acquired <- struct{}{}
		time.Sleep(20 * time.Millisecond)
		// Blocks forever.
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		a.LockAt("siteB2")
	}()
	want := map[uint64]bool{<-gids: true, <-gids: true}
	<-acquired
	<-acquired

	select {
	case <-sup.Confirmed():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor never confirmed the deadlock")
	}
	rs := reportsMentioning(sup.Reports(), "wg-dl-A")
	if len(rs) == 0 {
		t.Fatalf("no report names wg-dl-A: %v", sup.Reports())
	}
	r := rs[0]
	if r.Kind != ReportDeadlock {
		t.Fatalf("kind = %s", r.Kind)
	}
	if len(r.GIDs) != 2 || !want[r.GIDs[0]] || !want[r.GIDs[1]] {
		t.Fatalf("cycle gids = %v, want the two lockers %v", r.GIDs, want)
	}
	joined := strings.Join(r.Locks, ",")
	if !strings.Contains(joined, "wg-dl-A") || !strings.Contains(joined, "wg-dl-B") {
		t.Fatalf("cycle locks = %v", r.Locks)
	}
	for _, c := range r.Classes {
		if c != "WGDeadlock" {
			t.Fatalf("classes = %v", r.Classes)
		}
	}
	sites := strings.Join(r.Sites, ",")
	if !strings.Contains(sites, "siteA2") || !strings.Contains(sites, "siteB2") {
		t.Fatalf("sites = %v", r.Sites)
	}
	if n := e.IncidentCount(guard.KindDeadlockConfirmed); n < 1 {
		t.Fatalf("deadlock-confirmed incidents = %d", n)
	}
	if !strings.Contains(r.Desc, "held by") {
		t.Fatalf("desc lacks ownership: %q", r.Desc)
	}
}

// Satellite edge case: a re-entrant acquisition under a trigger action
// is a self-edge — a 1-cycle in the wait graph.
func TestAnalyzeSelfEdgeFromReentrantTriggerAction(t *testing.T) {
	e := core.NewEngine()
	l := locks.NewMutex("wg-self")
	gidCh := make(chan uint64, 1)
	go func() {
		gidCh <- locks.GoroutineID()
		l.LockAt("outer")
		// The trigger never matches; on release its action re-acquires
		// the lock the goroutine already holds. Leaks by design.
		e.TriggerHereAnd(core.NewConflictTrigger("wg.self.bp", new(int)), true,
			core.Options{Timeout: time.Millisecond}, func() {
				l.LockAt("reentrant")
			})
	}()
	gid := <-gidCh

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Key on the goroutine id, not just the lock name: under -count>1
		// the previous iteration's leaked goroutine still shows a
		// self-edge on an identically-named lock. A single capture can
		// also stitch a transient self-edge out of the "outer"
		// acquisition (waiter read before, owner read after it
		// completed); like the supervisor, count only a self-edge that
		// a second capture proves.
		g := Capture(e)
		for _, r := range reportsMentioning(g.Analyze(), "wg-self") {
			if len(r.GIDs) != 1 || r.GIDs[0] != gid || !g.stillWaiting(r.GIDs, Capture(e).LockEdges) {
				continue
			}
			if r.Kind != ReportDeadlock {
				t.Fatalf("kind = %s", r.Kind)
			}
			if r.Sites[0] != "reentrant" {
				t.Fatalf("site = %q", r.Sites[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("self-edge never detected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSupervisorBreaksPostponeStall(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	defer sup.Stop()

	l := locks.NewMutex("wg-stall-L")
	victimGID := make(chan uint64, 1)
	victimOut := make(chan core.Outcome, 1)
	go func() {
		victimGID <- locks.GoroutineID()
		l.LockAt("victim-site")
		defer l.Unlock()
		// 30s budget: only a cycle break can return this quickly.
		victimOut <- e.TriggerOutcome(core.NewConflictTrigger("wg.stall.bp", new(int)),
			true, core.Options{Timeout: 30 * time.Second})
	}()
	vg := <-victimGID
	waitPostponed(t, e, "wg.stall.bp") // victim holds the lock and is parked
	blockedElapsed := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		l.LockAt("wedged-site")
		l.Unlock()
		blockedElapsed <- time.Since(start)
	}()

	start := time.Now()
	select {
	case out := <-victimOut:
		if out != core.OutcomeTimeout {
			t.Fatalf("victim outcome = %v, want OutcomeTimeout", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("victim never force-released")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cycle break took %v", elapsed)
	}
	if elapsed := <-blockedElapsed; elapsed > 10*time.Second {
		t.Fatalf("wedged goroutine blocked for %v", elapsed)
	}

	// The victim wakes inside the supervisor's act, before act records
	// the incident; Stop waits for the scan loop and so for that act.
	sup.Stop()
	rs := reportsMentioning(sup.Reports(), "wg-stall-L")
	if len(rs) == 0 {
		t.Fatalf("no stall report names wg-stall-L: %v", sup.Reports())
	}
	r := rs[0]
	if r.Kind != ReportPostponeStall {
		t.Fatalf("kind = %s", r.Kind)
	}
	if r.Victim != vg {
		t.Fatalf("victim = g%d, want g%d", r.Victim, vg)
	}
	if len(r.Breakpoints) != 1 || r.Breakpoints[0] != "wg.stall.bp" {
		t.Fatalf("breakpoints = %v", r.Breakpoints)
	}
	if r.Sites[0] != "wedged-site" {
		t.Fatalf("sites = %v", r.Sites)
	}
	if n := e.IncidentCount(guard.KindCycleBreak); n != 1 {
		t.Fatalf("cycle-break incidents = %d, want 1", n)
	}
	if !strings.Contains(r.Desc, "wg.stall.bp") || !strings.Contains(r.Desc, "wg-stall-L") {
		t.Fatalf("desc = %q", r.Desc)
	}
}

// Satellite edge case: a 3-party chain — the postponed victim wedges
// one goroutine directly and a second transitively — with a second
// breakpoint's stall confirmed in the same run. The supervisor is
// driven synchronously with Scan so the full topology is assembled
// before any cycle break can fire.
func TestThreePartyChainAcrossTwoBreakpoints(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})

	la := locks.NewMutex("wg-3p-LA")
	lb := locks.NewMutex("wg-3p-LB")
	lc := locks.NewMutex("wg-3p-LC")
	var done sync.WaitGroup

	// Victim 1: holds LA, postponed on B1 with a huge budget.
	v1GID := make(chan uint64, 1)
	done.Add(1)
	go func() {
		defer done.Done()
		v1GID <- locks.GoroutineID()
		la.Lock()
		defer la.Unlock()
		e.TriggerOutcome(core.NewConflictTrigger("wg.3p.b1", new(int)), true,
			core.Options{Timeout: 30 * time.Second})
	}()
	vg1 := <-v1GID
	waitPostponed(t, e, "wg.3p.b1") // victim 1 holds LA and is parked
	// Party 2: holds LB, blocks on LA (wedged directly by victim 1).
	g2GID := make(chan uint64, 1)
	done.Add(1)
	go func() {
		defer done.Done()
		g2GID <- locks.GoroutineID()
		lb.Lock()
		defer lb.Unlock()
		la.Lock()
		la.Unlock()
	}()
	gg2 := <-g2GID
	waitBlocked(t, "wg-3p-LA")
	// Party 3: blocks on LB (wedged transitively through party 2).
	g3GID := make(chan uint64, 1)
	done.Add(1)
	go func() {
		defer done.Done()
		g3GID <- locks.GoroutineID()
		lb.Lock()
		lb.Unlock()
	}()
	gg3 := <-g3GID
	waitBlocked(t, "wg-3p-LB")
	// Victim 2: a second breakpoint's stall, wedging one goroutine on LC.
	done.Add(1)
	go func() {
		defer done.Done()
		lc.Lock()
		defer lc.Unlock()
		e.TriggerOutcome(core.NewConflictTrigger("wg.3p.b2", new(int)), true,
			core.Options{Timeout: 30 * time.Second})
	}()
	waitPostponed(t, e, "wg.3p.b2") // victim 2 holds LC and is parked
	done.Add(1)
	go func() {
		defer done.Done()
		lc.Lock()
		lc.Unlock()
	}()
	waitBlocked(t, "wg-3p-LC")

	// Two synchronous scans: sight, confirm, break both cycles.
	sup.Scan()
	sup.Scan()

	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("cycle breaks never released the parties")
	}

	var chain, second *Report
	rs := sup.Reports()
	for i, r := range rs {
		if r.Kind != ReportPostponeStall {
			continue
		}
		switch r.Breakpoints[0] {
		case "wg.3p.b1":
			if len(r.GIDs) == 3 {
				chain = &rs[i]
			}
		case "wg.3p.b2":
			second = &rs[i]
		}
	}
	if chain == nil {
		t.Fatalf("no 3-party stall report for wg.3p.b1: %v", sup.Reports())
	}
	if chain.Victim != vg1 {
		t.Fatalf("chain victim = g%d, want g%d", chain.Victim, vg1)
	}
	got := map[uint64]bool{}
	for _, g := range chain.GIDs {
		got[g] = true
	}
	if !got[vg1] || !got[gg2] || !got[gg3] {
		t.Fatalf("chain gids = %v, want {%d,%d,%d}", chain.GIDs, vg1, gg2, gg3)
	}
	joined := strings.Join(chain.Locks, ",")
	if !strings.Contains(joined, "wg-3p-LA") || !strings.Contains(joined, "wg-3p-LB") {
		t.Fatalf("chain locks = %v", chain.Locks)
	}
	if second == nil {
		t.Fatalf("no stall report for the second breakpoint: %v", sup.Reports())
	}
}

// waitPostponed waits until a goroutine is postponed on the named
// breakpoint.
func waitPostponed(t *testing.T, e *core.Engine, bp string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.PostponedCount(bp) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("nobody ever postponed on %s", bp)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBlocked waits until some goroutine shows a wait edge on the named
// lock.
func waitBlocked(t *testing.T, lock string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, e := range locks.WaitEdges() {
			if e.Lock == lock {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("nobody ever blocked on %s", lock)
		}
		time.Sleep(time.Millisecond)
	}
}

// Satellite edge case: scanning must tolerate Reset swapping the shard
// registry underneath it. Run with -race.
func TestScanRacesReset(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{Interval: 200 * time.Microsecond})
	sup.Start()
	defer sup.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			names := []string{"wg.race.a", "wg.race.b"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.TriggerHere(core.NewConflictTrigger(names[i%2], new(int)), i%2 == 0,
					core.Options{Timeout: 2 * time.Millisecond})
			}
		}(i)
	}
	for j := 0; j < 50; j++ {
		e.Reset()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	e.Reset()
	// The counter must balance once everything has drained.
	deadline := time.Now().Add(5 * time.Second)
	for e.PostponedTotal() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("PostponedTotal = %d after drain, want 0", e.PostponedTotal())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSupervisorBaselinesPreexistingCycles(t *testing.T) {
	// Leak a deadlock BEFORE the supervisor starts.
	a := locks.NewMutex("wg-base-A")
	b := locks.NewMutex("wg-base-B")
	gids := make(chan uint64, 2)
	acquired := make(chan struct{}, 2)
	go func() {
		gids <- locks.GoroutineID()
		a.Lock()
		acquired <- struct{}{}
		time.Sleep(10 * time.Millisecond)
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		b.Lock()
	}()
	go func() {
		gids <- locks.GoroutineID()
		b.Lock()
		acquired <- struct{}{}
		time.Sleep(10 * time.Millisecond)
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		a.Lock()
	}()
	leaked := map[uint64]bool{<-gids: true, <-gids: true}
	<-acquired
	<-acquired
	// Wait for THIS iteration's goroutines to block (by gid — under
	// -count>1 a previous iteration's leaked cycle shares the lock names
	// and would satisfy a name-based wait before these block).
	deadline := time.Now().Add(5 * time.Second)
	for blocked := 0; blocked < 2; {
		blocked = 0
		for _, e := range locks.WaitEdges() {
			if leaked[e.Waiter] {
				blocked++
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("leaked cycle never formed")
		}
		time.Sleep(time.Millisecond)
	}

	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	defer sup.Stop()
	waitScans(t, sup, 10)
	for _, r := range sup.Reports() {
		for _, g := range r.GIDs {
			if leaked[g] {
				t.Fatalf("supervisor confirmed a pre-existing cycle: %v", r)
			}
		}
	}
	select {
	case <-sup.Confirmed():
		t.Fatal("Confirmed closed for a baselined cycle")
	default:
	}
}

func waitScans(t *testing.T, sup *Supervisor, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sup.Scans() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d scans ran", sup.Scans())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReportSignatureCanonical(t *testing.T) {
	r1 := Report{Kind: ReportDeadlock, GIDs: []uint64{7, 9}, Locks: []string{"A", "B"}}
	r2 := Report{Kind: ReportDeadlock, GIDs: []uint64{9, 7}, Locks: []string{"B", "A"}}
	if r1.signature() != r2.signature() {
		t.Fatalf("rotated cycle signatures differ: %q vs %q", r1.signature(), r2.signature())
	}
	r3 := Report{Kind: ReportPostponeStall, GIDs: []uint64{7, 9}, Locks: []string{"A", "B"}}
	if r1.signature() == r3.signature() {
		t.Fatal("different kinds share a signature")
	}
}

func TestSupervisorStartStopIdempotent(t *testing.T) {
	sup := testSupervisor(core.NewEngine(), Config{})
	sup.Stop() // no-op before start
	sup.Start()
	sup.Start() // idempotent
	waitScans(t, sup, 1)
	sup.Stop()
	sup.Stop() // no-op after stop
}

// scripted returns a capture function that replays graphs in order,
// repeating the last one once the script runs out.
func scripted(graphs ...Graph) func() Graph {
	var mu sync.Mutex
	i := 0
	return func() Graph {
		mu.Lock()
		defer mu.Unlock()
		g := graphs[min(i, len(graphs)-1)]
		i++
		return g
	}
}

// edge is one synthetic lock-wait edge for scripted graphs.
func edge(waiter uint64, lock string, since time.Time, owner uint64) locks.WaitEdge {
	return locks.WaitEdge{Waiter: waiter, Lock: lock, Since: since, Owners: []uint64{owner}}
}

func TestDeadlockProofRejectsTransientCycle(t *testing.T) {
	t0 := time.Now()
	cycle := func(sinceB time.Time) Graph {
		return Graph{LockEdges: []locks.WaitEdge{
			edge(901, "wg-tr-A", t0, 902), edge(902, "wg-tr-B", sinceB, 901)}}
	}
	onlyA := Graph{LockEdges: []locks.WaitEdge{edge(901, "wg-tr-A", t0, 902)}}

	sup := New(core.NewEngine(), Config{})
	sup.capture = scripted(
		cycle(t0), onlyA, // scan 1: g902 unblocks between the captures
		cycle(t0.Add(time.Millisecond)), cycle(t0.Add(2*time.Millisecond)), // scan 2: it re-enters its wait
		onlyA, onlyA, // scan 3: no cycle at all
	)
	for i := 0; i < 3; i++ {
		sup.Scan()
	}
	if rs := sup.Reports(); len(rs) != 0 {
		t.Fatalf("transient cycle confirmed: %v", rs)
	}
	select {
	case <-sup.Confirmed():
		t.Fatal("Confirmed closed for a transient cycle")
	default:
	}

	// The same cycle held still across the two captures is proven.
	sup.capture = scripted(cycle(t0))
	sup.Scan()
	select {
	case <-sup.Confirmed():
	default:
		t.Fatal("a cycle unchanged across both captures was not confirmed")
	}
	if rs := sup.Reports(); len(rs) != 1 || rs[0].Kind != ReportDeadlock {
		t.Fatalf("reports = %v", rs)
	}
}

// lockRing starts n goroutines that each take their own lock, wait for
// the others to do the same, then take the next goroutine's lock: an
// n-party deadlock, deliberately leaked. It returns the goroutines once
// all of them are blocked.
func lockRing(t *testing.T, prefix string, n int) map[uint64]bool {
	t.Helper()
	ls := make([]*locks.Mutex, n)
	for i := range ls {
		ls[i] = locks.NewMutex(fmt.Sprintf("%s-%d", prefix, i))
	}
	var held sync.WaitGroup
	held.Add(n)
	gids := make(chan uint64, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			gids <- locks.GoroutineID()
			ls[i].Lock()
			held.Done()
			held.Wait()
			//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
			ls[(i+1)%n].Lock()
		}(i)
	}
	ring := map[uint64]bool{}
	for i := 0; i < n; i++ {
		ring[<-gids] = true
	}
	waitGIDsBlocked(t, ring)
	return ring
}

// waitGIDsBlocked waits until every goroutine in gids shows a lock-wait
// edge (by gid: under -count>1 earlier iterations' leaked rings share
// the lock names).
func waitGIDsBlocked(t *testing.T, gids map[uint64]bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		blocked := 0
		for _, e := range locks.WaitEdges() {
			if gids[e.Waiter] {
				blocked++
			}
		}
		if blocked == len(gids) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d goroutines ever blocked", blocked, len(gids))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFirstScanConfirmsRealCycles(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d-party", n), func(t *testing.T) {
			// Default Config, no Interval override. Start and stop the
			// loop only to baseline earlier tests' leaked cycles, then
			// drive exactly one scan by hand.
			sup := New(core.NewEngine(), Config{})
			sup.Start()
			sup.Stop()
			ring := lockRing(t, fmt.Sprintf("wg-ring%d", n), n)
			sup.Scan()
			select {
			case <-sup.Confirmed():
			default:
				t.Fatalf("%d-party cycle not confirmed by the first scan: %v", n, sup.Reports())
			}
			var found bool
			for _, r := range sup.Reports() {
				if r.Kind != ReportDeadlock || len(r.GIDs) != n {
					continue
				}
				found = true
				for _, g := range r.GIDs {
					found = found && ring[g]
				}
				if found {
					break
				}
			}
			if !found {
				t.Fatalf("no report names the ring %v: %v", ring, sup.Reports())
			}
		})
	}
}
