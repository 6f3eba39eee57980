// Command supervision demonstrates the engine's supervision surface
// through the public cbreak facade: overload shedding with bounded
// postponed populations, adaptive postponement budgets, the wait-graph
// healing primitives (postponed-waiter snapshots and early
// force-release), and the supervisor's one-scan deadlock proof. Output is deterministic (counters and bucketed
// booleans, no raw durations) so two runs can be diffed.
package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cbreak"
)

func section(name string) { fmt.Printf("== %s ==\n", name) }

// parkTrigger returns a trigger that always postpones and never finds
// a partner: local predicate true, global predicate false. Each call
// site gets its own instance.
func parkTrigger(name string) *cbreak.PredTrigger {
	return cbreak.NewPredTrigger(name, nil,
		func() bool { return true },
		func(other *cbreak.PredTrigger) bool { return false })
}

// waitPostponed polls until the engine-wide postponed population
// reaches want (bounded, so a regression fails loudly instead of
// hanging the demo).
func waitPostponed(want int64) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if cbreak.PostponedTotal() >= want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func main() {
	// --- Overload shedding -----------------------------------------------
	// A per-shard cap of 2: the first two arrivals postpone, the next two
	// are shed outright (OutcomeShed, like an open circuit breaker) with
	// an overload-shed incident each.
	section("overload shedding")
	cbreak.SetOverloadConfig(&cbreak.OverloadConfig{MaxPerShard: 2})

	bpOverload := cbreak.Register("demo.overload")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bpOverload.Trigger(parkTrigger("demo.overload"), true,
				cbreak.Options{Timeout: 300 * time.Millisecond})
		}()
	}
	fmt.Printf("two arrivals postponed: %v\n", waitPostponed(2))
	for i := 0; i < 2; i++ {
		bpOverload.Trigger(parkTrigger("demo.overload"), true,
			cbreak.Options{Timeout: 300 * time.Millisecond})
	}
	wg.Wait()
	for _, st := range cbreak.SnapshotStats() {
		if st.Name == "demo.overload" {
			fmt.Printf("stats: arrivals=%d postpones=%d sheds=%d\n",
				st.Arrivals, st.Postpones, st.Sheds)
		}
	}
	fmt.Printf("overload-shed incidents: %d\n", cbreak.IncidentCount(cbreak.KindOverloadShed))
	fmt.Printf("postponed population drained: %v\n", cbreak.PostponedTotal() == 0)

	// --- Adaptive budgets ------------------------------------------------
	// Between SoftWater and GlobalHighWater the granted budget shrinks
	// linearly toward MinBudget: with five goroutines already postponed,
	// a request for 2.5s is granted roughly a fifth of that, so the
	// arrival returns long before its requested budget.
	section("adaptive budgets")
	cbreak.Reset()
	cbreak.SetOverloadConfig(&cbreak.OverloadConfig{
		GlobalHighWater: 6,
		SoftWater:       1,
		MinBudget:       25 * time.Millisecond,
	})
	bpBudget := cbreak.Register("demo.budget")
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bpBudget.Trigger(parkTrigger("demo.budget"), true,
				cbreak.Options{Timeout: 400 * time.Millisecond})
		}()
	}
	fmt.Printf("five fillers postponed: %v\n", waitPostponed(5))
	start := time.Now()
	hit := cbreak.TriggerHere(parkTrigger("demo.budget"), true, 2500*time.Millisecond)
	elapsed := time.Since(start)
	wg.Wait()
	fmt.Printf("crowded arrival hit: %v, released well before its 2.5s request: %v\n",
		hit, elapsed < time.Second)

	// --- Wait-graph healing primitives -----------------------------------
	// The primitives the wait-graph supervisor heals stalls with:
	// PostponedWaiters snapshots who is parked where, and ForceRelease
	// frees a victim early — indistinguishable at the call site from an
	// ordinary budget expiry — recording a cycle-break incident.
	section("healing primitives")
	cbreak.Reset()
	cbreak.SetOverloadConfig(nil)
	done := make(chan bool, 1)
	go func() {
		done <- cbreak.TriggerHere(parkTrigger("demo.heal"), true, 30*time.Second)
	}()
	if !waitPostponed(1) {
		fmt.Println("victim never postponed")
		return
	}
	waiters := cbreak.PostponedWaiters()
	fmt.Printf("postponed waiters: %d\n", len(waiters))
	for _, w := range waiters {
		fmt.Printf("waiter at %q slot=%d arity=%d\n", w.Breakpoint, w.Slot, w.Arity)
	}
	released := cbreak.ForceRelease(waiters[0].Breakpoint, waiters[0].GID,
		cbreak.KindCycleBreak, "demo: breaking a simulated stall cycle")
	start = time.Now()
	healedHit := <-done
	fmt.Printf("force-released: %v, victim hit: %v, freed well before its 30s budget: %v\n",
		released, healedHit, time.Since(start) < 5*time.Second)
	fmt.Printf("cycle-break incidents: %d\n", cbreak.IncidentCount(cbreak.KindCycleBreak))
	for _, in := range cbreak.Incidents() {
		if in.Kind == cbreak.KindCycleBreak {
			fmt.Printf("incident: kind=%s breakpoint=%s\n", in.Kind, in.Breakpoint)
		}
	}

	// --- Deadlock proof --------------------------------------------------
	// An application-only lock cycle is confirmed on the first scan that
	// sees it: a second capture taken at once must show both goroutines
	// still in the same wait, which proves neither can ever release the
	// lock the other needs. The two goroutines stay deadlocked until the
	// demo exits.
	section("deadlock proof")
	cbreak.Reset()
	sup := cbreak.StartSupervisor(cbreak.WaitGraphConfig{})
	defer sup.Stop()
	a, b := cbreak.NewMutex("demo.lockA"), cbreak.NewMutex("demo.lockB")
	var held sync.WaitGroup
	held.Add(2)
	cross := func(first, second *cbreak.Mutex) {
		first.Lock()
		held.Done()
		held.Wait()
		second.Lock() // never returns
	}
	start = time.Now()
	go cross(a, b)
	go cross(b, a)
	select {
	case <-sup.Confirmed():
		fmt.Printf("deadlock confirmed well within 1s: %v\n", time.Since(start) < time.Second)
	case <-time.After(5 * time.Second):
		fmt.Println("deadlock never confirmed")
		return
	}
	for _, r := range sup.Reports() {
		if r.Kind == cbreak.ReportDeadlock {
			locks := append([]string(nil), r.Locks...)
			sort.Strings(locks)
			fmt.Printf("report: kind=%s goroutines=%d locks=%v\n", r.Kind, len(r.GIDs), locks)
		}
	}
	fmt.Printf("deadlock-confirmed incidents: %d\n", cbreak.IncidentCount(cbreak.KindDeadlockConfirmed))
	cbreak.Reset()
	fmt.Println("done")
}
