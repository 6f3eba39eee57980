// Package jigsaw models W3C's Jigsaw web server as evaluated in the
// paper (Table 1 rows "jigsaw"): a connection factory managing socket
// clients, driven by a harness that simulates concurrent page requests
// and administrative commands. Five bugs are seeded, matching the
// paper's rows:
//
//   - deadlock1 — the Figure 2 deadlock: killClients holds the factory
//     monitor (line 867) and acquires csList (line 872), while
//     clientConnectionFinished holds csList (line 623) and calls
//     decrIdleCount, which needs the factory monitor (line 574).
//   - deadlock2 — the access logger's lock crosses the factory monitor
//     on the log-vs-shutdown paths.
//   - missed-notify1 — the idle-client reaper's lost wakeup (found with
//     Methodology II in the paper).
//   - race1 — the idle-count bookkeeping is a racy read-modify-write; a
//     lost decrement leaves the shutdown barrier waiting for an idle
//     count that never reaches zero: a stall.
//   - race2 — the requests-served statistic loses updates (no visible
//     error beyond a wrong count).
package jigsaw

import (
	"fmt"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// Breakpoint names for engine statistics.
const (
	BPDeadlock1    = "jigsaw.deadlock1"
	BPDeadlock2    = "jigsaw.deadlock2"
	BPMissedNotify = "jigsaw.missed-notify1"
	BPRace1        = "jigsaw.race1"
	BPRace2        = "jigsaw.race2"
)

// Request is an incoming HTTP-ish request.
type Request struct {
	Path   string
	Client int
}

// Response is the server's reply.
type Response struct {
	Status int
	Body   string
}

// SocketClient is one pooled connection handler.
type SocketClient struct {
	ID   int
	idle bool
}

// ClientList is the csList of Figure 2: the factory's client registry
// with its own monitor.
type ClientList struct {
	mu      *locks.Mutex
	clients []*SocketClient
}

func newClientList() *ClientList {
	return &ClientList{mu: locks.NewMutex("jigsaw.csList")}
}

// Factory is the SocketClientFactory: the paper's deadlock participant.
type Factory struct {
	mu     *locks.Mutex // the factory monitor ("this" of Figure 2)
	csList *ClientList

	logMu     *locks.Mutex // access logger lock (deadlock2 partner)
	accessLog []string

	idleCount      *memory.Cell // race1: racy idle bookkeeping
	requestsServed *memory.Cell // race2: racy statistics

	reapCond *locks.Cond // missed-notify1: reaper wakeup
	reaped   int

	cfg *Config
}

// NewFactory returns a factory with n idle clients registered.
func NewFactory(n int, cfg *Config) *Factory {
	sp := memory.NewSpace()
	mu := locks.NewMutex("jigsaw.factory")
	f := &Factory{
		mu:             mu,
		csList:         newClientList(),
		logMu:          locks.NewMutex("jigsaw.logger"),
		idleCount:      memory.NewCell(sp, "jigsaw.idleCount", 0),
		requestsServed: memory.NewCell(sp, "jigsaw.requestsServed", 0),
		cfg:            cfg,
	}
	f.reapCond = locks.NewCond("jigsaw.reap", mu)
	for i := 0; i < n; i++ {
		f.csList.clients = append(f.csList.clients, &SocketClient{ID: i, idle: true})
	}
	//cbvet:ignore conflicts single-threaded constructor store; the racy idleCount sites are the reproduced Figure 2 bug
	f.idleCount.Store("init", int64(n))
	return f
}

// decrIdleCount (Figure 2 line 574): the factory monitor guards the
// client bookkeeping, but the counter update itself is a racy
// read-modify-write performed outside it (race1) — the unsynchronized
// statistics path of the original bug.
func (f *Factory) decrIdleCount(worker int) {
	f.mu.LockAt("SocketClientFactory.java:574")
	f.mu.Unlock()
	v := f.idleCount.Load("jigsaw.go:idle.read")
	if f.cfg.bug(Race1) {
		f.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace1, f.idleCount), worker == 0,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.idleCount.Store("jigsaw.go:idle.write", v-1)
}

// incrIdleCount restores an idle slot (same racy pattern; the second
// side of race1 when two finishing connections interleave).
func (f *Factory) incrIdleCount(worker int) {
	v := f.idleCount.Load("jigsaw.go:idle.read2")
	if f.cfg.bug(Race1) {
		f.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace1, f.idleCount), worker != 0,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.idleCount.Store("jigsaw.go:idle.write2", v+1)
}

// ClientConnectionFinished (Figure 2 line 618): csList monitor (623),
// then decrIdleCount's factory monitor (574) — one side of deadlock1.
func (f *Factory) ClientConnectionFinished(worker int) {
	f.csList.mu.LockAt("SocketClientFactory.java:623")
	defer f.csList.mu.Unlock()
	if f.cfg.bug(Deadlock1) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock1, f.csList.mu, f.mu), true,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock1 of the paper's Jigsaw study (line 626 -> 574)
	f.decrIdleCount(worker)
}

// KillClients (Figure 2 line 867): factory monitor, then csList (872) —
// the other side of deadlock1.
func (f *Factory) KillClients() int {
	f.mu.LockAt("SocketClientFactory.java:867")
	defer f.mu.Unlock()
	if f.cfg.bug(Deadlock1) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock1, f.mu, f.csList.mu), false,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock1 of the paper's Jigsaw study (line 867 -> 872)
	f.csList.mu.LockAt("SocketClientFactory.java:872")
	defer f.csList.mu.Unlock()
	killed := 0
	for _, c := range f.csList.clients {
		if c.idle {
			c.idle = false
			killed++
		}
	}
	return killed
}

// LogAccess records an access-log line: logger lock, then the factory
// monitor for the current count — one side of deadlock2.
func (f *Factory) LogAccess(req Request) {
	f.logMu.LockAt("CommonLogger.java:log")
	defer f.logMu.Unlock()
	if f.cfg.bug(Deadlock2) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock2, f.logMu, f.mu), true,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock2 of the paper's Jigsaw study (logger then factory)
	f.mu.LockAt("SocketClientFactory.java:getClientCount")
	n := len(f.csList.clients)
	f.mu.Unlock()
	f.accessLog = append(f.accessLog, fmt.Sprintf("%s clients=%d", req.Path, n))
}

// Shutdown flushes the logger under the factory monitor — the other
// side of deadlock2.
func (f *Factory) Shutdown() {
	f.mu.LockAt("SocketClientFactory.java:shutdown")
	defer f.mu.Unlock()
	if f.cfg.bug(Deadlock2) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock2, f.mu, f.logMu), false,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock2 of the paper's Jigsaw study (factory then logger)
	f.logMu.LockAt("CommonLogger.java:flush")
	defer f.logMu.Unlock()
	f.accessLog = append(f.accessLog, "shutdown")
}

// Serve handles one request and updates the racy served counter
// (race2).
func (f *Factory) Serve(req Request, worker int) Response {
	v := f.requestsServed.Load("jigsaw.go:served.read")
	if f.cfg.bug(Race2) {
		f.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace2, f.requestsServed), worker == 0,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.requestsServed.Store("jigsaw.go:served.write", v+1)
	return Response{Status: 200, Body: "<html>" + req.Path + "</html>"}
}

// NotifyClientAvailable wakes the reaper — but outside the factory
// monitor and without setting any flag: the lossy side of
// missed-notify1.
func (f *Factory) NotifyClientAvailable() {
	notify := f.reapCond.Notify
	if f.cfg.bug(MissedNotify) {
		f.cfg.Engine.TriggerHereAnd(core.NewNotifyTrigger(BPMissedNotify, f.reapCond), true,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1}, notify)
	} else {
		notify()
	}
}

// AwaitClientAvailable is the reaper's wait: the availability test and
// the wait are separated by an unprotected window (the bug); the
// second-action breakpoint side sits in that window.
func (f *Factory) AwaitClientAvailable() {
	f.mu.Lock()
	available := f.idleCount.Load("jigsaw.go:reap.check") > 0
	f.mu.Unlock()
	if available {
		return
	}
	if f.cfg.bug(MissedNotify) {
		f.cfg.Engine.TriggerHere(core.NewNotifyTrigger(BPMissedNotify, f.reapCond), false,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.mu.Lock()
	f.reapCond.Wait() // waits on the stale availability test
	f.mu.Unlock()
}

// Bug selects which seeded bug a run exercises.
type Bug int

// The jigsaw bugs of Table 1.
const (
	Deadlock1 Bug = iota
	Deadlock2
	MissedNotify
	Race1
	Race2
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	Timeout    time.Duration
	// StallAfter bounds stall detection (default 2s).
	StallAfter time.Duration
	// Requests is the simulated client load (default 40).
	Requests int
}

func (c *Config) bug(b Bug) bool {
	return c != nil && c.Breakpoint && c.Bug == b && c.Engine != nil
}

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 2 * time.Second
	}
	return c.StallAfter
}

func (c *Config) requests() int {
	if c.Requests <= 0 {
		return 40
	}
	return c.Requests
}

func bpName(b Bug) string {
	switch b {
	case Deadlock1:
		return BPDeadlock1
	case Deadlock2:
		return BPDeadlock2
	case MissedNotify:
		return BPMissedNotify
	case Race1:
		return BPRace1
	default:
		return BPRace2
	}
}

// Run drives the server harness once: simulated clients issue page
// requests while administrative commands (killClients, shutdown) arrive
// concurrently — the paper's Jigsaw test harness in miniature.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	f := NewFactory(4, &cfg)
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		switch cfg.Bug {
		case Deadlock1:
			return runDeadlock1(f, &cfg)
		case Deadlock2:
			return runDeadlock2(f, &cfg)
		case MissedNotify:
			return runMissedNotify(f, &cfg)
		case Race1:
			return runRace1(f, &cfg)
		default:
			return runRace2(f, &cfg)
		}
	})
	res.BPHit = cfg.Engine.Stats(bpName(cfg.Bug)).Hits() > 0
	return res
}

func runDeadlock1(f *Factory, cfg *Config) appkit.Result {
	done := make(chan struct{}, 2)
	go func() { // client connections finishing
		for i := 0; i < cfg.requests()/4; i++ {
			f.ClientConnectionFinished(0)
			f.incrIdleCount(0)
		}
		done <- struct{}{}
	}()
	go func() { // admin killing idle clients
		time.Sleep(time.Millisecond)
		f.KillClients()
		done <- struct{}{}
	}()
	<-done
	<-done
	return appkit.Result{Status: appkit.OK}
}

func runDeadlock2(f *Factory, cfg *Config) appkit.Result {
	done := make(chan struct{}, 2)
	go func() {
		for i := 0; i < cfg.requests(); i++ {
			f.LogAccess(Request{Path: fmt.Sprintf("/page/%d", i)})
		}
		done <- struct{}{}
	}()
	go func() {
		time.Sleep(time.Millisecond)
		f.Shutdown()
		done <- struct{}{}
	}()
	<-done
	<-done
	return appkit.Result{Status: appkit.OK}
}

func runMissedNotify(f *Factory, cfg *Config) appkit.Result {
	f.idleCount.Store("setup", 0) // exhausted: reaper must wait
	reaped, notified := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(reaped)
		f.AwaitClientAvailable()
	}()
	go func() {
		defer close(notified)
		time.Sleep(time.Millisecond)
		f.mu.Lock()
		f.idleCount.Store("release", 1)
		f.mu.Unlock()
		f.NotifyClientAvailable()
	}()
	// The release is the only notifier: once it is done, a reaper still
	// waiting has lost its wakeup for good.
	if stall, ok := appkit.AwaitWakeup(f.reapCond, notified, reaped); !ok {
		return stall
	}
	return appkit.Result{Status: appkit.OK}
}

// race1TurnWait bounds how long a connection loop waits for the other
// loop's idle-count update to finish before starting its own.
const race1TurnWait = 2 * time.Millisecond

func runRace1(f *Factory, cfg *Config) appkit.Result {
	// The connection loops update the idle count one at a time: each
	// waits for the other's update to finish first, so left alone they
	// never interleave and only the breakpoint-forced interleaving loses
	// an update. Sleep cadences cannot keep them apart: the runtime
	// rounds sub-millisecond sleeps up to its timer tick, which wakes
	// both loops together. The wait is bounded because a loop parked at
	// the breakpoint mid-update keeps its turn, and its partner must
	// still reach the breakpoint.
	turn := make(chan struct{}, 1)
	turn <- struct{}{}
	inTurn := func(update func(worker int), w int) {
		select {
		case <-turn:
			defer func() { turn <- struct{}{} }()
		case <-time.After(race1TurnWait):
		}
		update(w)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			work := time.Duration(400+300*w) * time.Microsecond
			for i := 0; i < cfg.requests()/2; i++ {
				inTurn(f.decrIdleCount, w)
				time.Sleep(work) // connection work
				inTurn(f.incrIdleCount, w)
				time.Sleep(work / 2) // idle gap
			}
		}(w)
	}
	wg.Wait()
	// Shutdown barrier: waits for all clients to be idle again. Both
	// workers have joined, so nothing writes the counter any more: a
	// lost update leaves it off forever — the paper's race1 stall,
	// proven by one read instead of waited out.
	want := int64(len(f.csList.clients))
	if idle := f.idleCount.Load("barrier"); idle != want {
		return appkit.Result{Status: appkit.Stall, Detail: fmt.Sprintf(
			"idle-count barrier can no longer be met: idle=%d, want %d, and no writer is left", idle, want)}
	}
	return appkit.Result{Status: appkit.OK}
}

func runRace2(f *Factory, cfg *Config) appkit.Result {
	// Drive the race through the real HTTP surface: two keep-alive
	// clients whose request handlers race on the served counter.
	total := cfg.requests()
	ok, err := f.ServeHTTPLoad(2, total/2)
	if err != nil {
		return appkit.Result{Status: appkit.TestFail, Detail: "http error: " + err.Error()}
	}
	if ok != total {
		return appkit.Result{Status: appkit.TestFail,
			Detail: fmt.Sprintf("only %d/%d responses ok", ok, total)}
	}
	if got := f.requestsServed.Load("check"); got != int64(total) {
		return appkit.Result{Status: appkit.TestFail,
			Detail: fmt.Sprintf("served counter lost updates: %d/%d", got, total)}
	}
	return appkit.Result{Status: appkit.OK}
}
