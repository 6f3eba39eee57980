package waitgraph

import (
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/locks"
	"cbreak/internal/telemetry"
)

// Config tunes a Supervisor. The zero value is usable: 5ms scans,
// deadlocks confirmed on the first scan that proves them, postponement
// stalls after 2 consecutive sightings, recovery enabled.
type Config struct {
	// Interval is the scan period. 0 defaults to 5ms.
	Interval time.Duration
	// ConfirmAfter is how many consecutive scans must observe a
	// postponement stall before the supervisor breaks it — the debounce
	// against acting on a torn snapshot (capture is a sample, not a
	// transaction). Deadlocks do not use it: they are proven within one
	// scan (see Scan). 0 defaults to 2.
	ConfirmAfter int
	// DisableRecovery turns off cycle breaking: stalls are still
	// detected and reported, but no postponed goroutine is
	// force-released. Deadlock confirmation is unaffected.
	DisableRecovery bool
	// OnReport, when set, is invoked (on the scan goroutine) for every
	// confirmed finding, after recovery has been attempted.
	OnReport func(Report)
}

// Supervisor runs the wait-graph scan loop against one engine: every
// interval it captures the graph, analyzes it, and acts on the
// findings it can confirm — a deadlock at once, when a second capture
// proves the cycle permanent, and a postponement stall once it has
// persisted across ConfirmAfter consecutive scans. A confirmed
// postponement stall is broken by force-releasing the postponed victim
// through the engine's shared release path (recorded as a cycle-break
// incident); a confirmed application-only cycle is latched as a
// deadlock confirmation (incident + Confirmed channel) so a harness can
// classify the trial immediately instead of waiting out its deadline.
//
// Goroutines already blocked when the supervisor starts are baselined
// and ignored: sequential in-process trials deliberately leak
// deadlocked goroutines, and a supervisor must not keep re-confirming
// a previous trial's corpse.
type Supervisor struct {
	e   *core.Engine
	cfg Config
	// capture snapshots the graph; tests script it.
	capture func() Graph

	mu       sync.Mutex
	stop     chan struct{}
	done     chan struct{}
	reports  []Report
	pending  map[string]*sighting
	acted    map[string]bool
	baseline map[uint64]bool

	confirmed     chan struct{}
	confirmedOnce sync.Once

	scans atomic.Int64
}

// sighting tracks how many consecutive scans observed one finding.
type sighting struct {
	report   Report
	streak   int
	lastScan int64
}

// New returns a supervisor for the engine. Start it with Start.
func New(e *core.Engine, cfg Config) *Supervisor {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.ConfirmAfter <= 0 {
		cfg.ConfirmAfter = 2
	}
	return &Supervisor{
		e:         e,
		cfg:       cfg,
		capture:   func() Graph { return Capture(e) },
		pending:   map[string]*sighting{},
		acted:     map[string]bool{},
		confirmed: make(chan struct{}),
	}
}

// Start baselines the currently-blocked goroutines and launches the
// scan loop. Idempotent while running; stop with Stop.
func (s *Supervisor) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.baseline = map[uint64]bool{}
	for _, e := range s.capture().LockEdges {
		s.baseline[e.Waiter] = true
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(s.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s.Scan()
			}
		}
	}()
}

// Stop halts the scan loop and waits for it to exit. No-op when not
// running.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Confirmed returns a channel closed on the first confirmed deadlock
// (application-only cycle). Harnesses select on it against the trial's
// own completion to classify deadlocks in milliseconds.
func (s *Supervisor) Confirmed() <-chan struct{} { return s.confirmed }

// Reports returns every confirmed finding so far, in confirmation
// order.
func (s *Supervisor) Reports() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Report(nil), s.reports...)
}

// Scans returns how many scans have run; tests use it to wait for the
// loop to have looked at least once.
func (s *Supervisor) Scans() int64 { return s.scans.Load() }

// Scan captures and analyzes the wait graph once and acts on what it
// confirms. It is the loop body, exported so tests (and one-shot
// classifiers) can drive it synchronously.
//
// A deadlock cycle is confirmed in the scan that first sees it, by
// proof rather than by waiting: an immediate second capture must show
// every member still in the same wait (same lock, same start time).
// Such a goroutine was blocked for the whole interval between the two
// captures, so it held its locks throughout — including at the moment
// the first capture read it as the owner its predecessor waits on.
// Every member is then waiting on a lock a permanently blocked member
// holds: the cycle is real and can never resolve. A member that left
// its wait, or left and re-entered it, fails the check, so a cycle
// assembled from a torn snapshot is never confirmed. Postponement
// stalls keep the ConfirmAfter streak: their victim can still wake on
// its own budget, so persistence is the evidence.
func (s *Supervisor) Scan() {
	g := s.capture()
	found := g.Analyze()
	scan := s.scans.Add(1)

	s.mu.Lock()
	var confirmed []Report
	var later []locks.WaitEdge // the proving capture, taken on demand
	for _, r := range found {
		if s.baselined(r) {
			continue
		}
		sig := r.signature()
		if s.acted[sig] {
			continue
		}
		if r.Kind == ReportDeadlock {
			if later == nil {
				later = s.capture().LockEdges
			}
			if g.stillWaiting(r.GIDs, later) {
				s.acted[sig] = true
				confirmed = append(confirmed, r)
			}
			continue
		}
		sg := s.pending[sig]
		if sg == nil || sg.lastScan != scan-1 {
			sg = &sighting{}
			s.pending[sig] = sg
		}
		sg.report = r
		sg.streak++
		sg.lastScan = scan
		if sg.streak >= s.cfg.ConfirmAfter {
			s.acted[sig] = true
			delete(s.pending, sig)
			confirmed = append(confirmed, r)
		}
	}
	// Drop stale sightings so the pending map cannot grow without
	// bound across a long campaign.
	for sig, sg := range s.pending {
		if sg.lastScan != scan {
			delete(s.pending, sig)
		}
	}
	s.reports = append(s.reports, confirmed...)
	s.mu.Unlock()

	for _, r := range confirmed {
		s.act(r)
	}
}

// stillWaiting reports whether every goroutine in gids has the same
// wait record — lock and start time — in the later lock edges as in
// this snapshot: each was blocked, without a break, from this capture
// to the later one.
func (g Graph) stillWaiting(gids []uint64, later []locks.WaitEdge) bool {
	for _, gid := range gids {
		before, ok := waitOf(g.LockEdges, gid)
		if !ok {
			return false
		}
		after, ok := waitOf(later, gid)
		if !ok || after.Mutex() != before.Mutex() || after.Lock != before.Lock ||
			!after.Since.Equal(before.Since) {
			return false
		}
	}
	return true
}

// waitOf finds gid's wait record among edges.
func waitOf(edges []locks.WaitEdge, gid uint64) (locks.WaitEdge, bool) {
	for _, e := range edges {
		if e.Waiter == gid {
			return e, true
		}
	}
	return locks.WaitEdge{}, false
}

// baselined reports whether every lock-blocked goroutine of the finding
// predates the supervisor — a leaked cycle from a previous trial. A
// postponement stall's victim is, by construction, currently postponed
// on the live engine, so stalls are only baselined when all their
// wedged waiters are stale.
func (s *Supervisor) baselined(r Report) bool {
	if len(s.baseline) == 0 {
		return false
	}
	for _, gid := range r.GIDs {
		if gid == r.Victim {
			continue
		}
		if !s.baseline[gid] {
			return false
		}
	}
	return true
}

// act performs the confirmed finding's recovery/diagnosis. Called off
// the supervisor mutex so OnReport callbacks may call back into the
// supervisor.
func (s *Supervisor) act(r Report) {
	switch r.Kind {
	case ReportPostponeStall:
		if !s.cfg.DisableRecovery {
			// The shared forced-release path makes this idempotent
			// against the watchdog, Reset, and a natural timeout: if
			// the victim is already gone there is nothing to break and
			// no incident is recorded by the release itself.
			s.e.ForceRelease(r.Breakpoints[0], r.Victim, guard.KindCycleBreak,
				"wait-graph cycle broken: "+r.Desc)
		}
	case ReportDeadlock:
		s.e.RecordIncident(guard.KindDeadlockConfirmed, "", r.GIDs[0],
			"wait-graph deadlock confirmed: "+r.Desc)
		s.confirmedOnce.Do(func() { close(s.confirmed) })
	}
	// Publish the finding on the engine's telemetry bus — the same
	// fan-out the durable sink and live streams consume, replacing the
	// OnReport-only reporting path (OnReport stays as an in-process
	// hook). The bus shape is the flattened telemetry.Report; the full
	// structured finding remains available from Reports().
	s.e.Bus().Publish(telemetry.Record{Kind: telemetry.RecordReport,
		Report: r.telemetryReport()})
	if s.cfg.OnReport != nil {
		s.cfg.OnReport(r)
	}
}

// telemetryReport flattens the finding into the bus shape
// (telemetry.Report sits below this package in the import graph).
func (r Report) telemetryReport() telemetry.Report {
	return telemetry.Report{
		When:        time.Now(),
		Kind:        string(r.Kind),
		Desc:        r.Desc,
		Breakpoints: append([]string(nil), r.Breakpoints...),
		GIDs:        append([]uint64(nil), r.GIDs...),
		Victim:      r.Victim,
	}
}

// RegisterMetrics registers the supervisor's catalog collector on reg:
// the scan counter (confirmed-finding totals are counted off the bus by
// telemetry.Registry.WireBus, which sees every act()).
func (s *Supervisor) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Desc: telemetry.DescWaitgraphScans,
			Value: float64(s.Scans())})
	})
}
