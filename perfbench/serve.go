package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appboot"
	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/httpd"
	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/harness"
	"cbreak/internal/journal"
	"cbreak/internal/journal/sink"
	"cbreak/internal/netchaos"
	"cbreak/internal/telemetry"
)

// serve: the cbserverd multi-app topology assembled in-process. httpd
// has log-corruption armed (Bound 1: after the first hit every request
// is a local-false arrival) and fans every GET into a mysql backend
// with no bug armed; both sit behind a fault-free netchaos proxy. A
// journal sink on SyncInterval rides the engine's durable tap, one bus
// subscription is drained, and the metric registry is rendered once a
// second as a scraper would. Load is a closed loop of nproc clients
// with one attempt per request, so no retry hides a failure.
//
// The run is cut into cycles: episodesPerCycle load episodes of
// episodeLen, then a burst of probeBurst probes. Each episode and each
// probe boots a fresh topology. Every boot is one set-up sample and one
// chance for the armed breakpoint to reproduce the log corruption,
// which gives repro_rate its samples. A probe's load runs only until
// the breakpoint hits, or for probeLen at most, and the probes alone
// give MTTE its samples, without turning the load into boot churn.
// A burst is exactly one MTTE window of setWindowedTails. On a shared
// host, stolen processor time comes in stretches of a few seconds; a
// window that takes half a second rather than several lets the median
// over windows pass over them.
const (
	episodeLen       = 250 * time.Millisecond
	episodesPerCycle = 8
	probeBurst       = 100 // WindowSize(0.9)
	probeLen         = 20 * time.Millisecond
)

// okReply is a well-formed answer to a proxied or direct GET.
var okReply = regexp.MustCompile(`^200 id=\d+ OK db=ok \d+$`)

// okStmt is a well-formed mysql answer.
var okStmt = regexp.MustCompile(`^ok \d+$`)

// reqGen is one client's seeded request sequence.
type reqGen struct{ s *appkit.Stream }

func newReqGen(seed int64, client int) *reqGen {
	return &reqGen{s: appkit.DeriveStream(seed, int64(client))}
}

// next returns the next page ordinal. httpd turns an even ordinal into
// an INSERT and an odd one into a FLUSH LOGS, so writes run beside log
// rotations.
func (g *reqGen) next() int { return g.s.Intn(1 << 20) }

// stmtFor is the mysql statement httpd derives from a page ordinal.
func stmtFor(page int) string {
	if page%2 == 0 {
		return fmt.Sprintf("INSERT INTO t1 VALUES ('page-%d')", page)
	}
	return "FLUSH LOGS"
}

// sinkTap is the benchmark's core.DurableSink decorator around the real
// journal sink: it counts every record it forwards (the replay check
// compares against this count) and, when traced, times each append.
type sinkTap struct {
	s      *sink.Sink
	tr     *Tracer
	parent int64
	n      atomic.Int64

	mu      sync.Mutex
	appends Dist
}

func (t *sinkTap) RecordEvent(ev core.Event) {
	t.n.Add(1)
	if t.tr == nil {
		t.s.RecordEvent(ev)
		return
	}
	t.timed("sink.RecordEvent", func() { t.s.RecordEvent(ev) })
}

func (t *sinkTap) RecordIncident(in guard.Incident) {
	t.n.Add(1)
	if t.tr == nil {
		t.s.RecordIncident(in)
		return
	}
	t.timed("sink.RecordIncident", func() { t.s.RecordIncident(in) })
}

func (t *sinkTap) timed(name string, f func()) {
	span := t.tr.Begin(name, t.parent, 0)
	start := time.Now()
	f()
	d := time.Since(start)
	t.tr.End(span)
	t.mu.Lock()
	t.appends.Add(d)
	t.mu.Unlock()
}

// topology is one booted episode.
type topology struct {
	e            *core.Engine
	dir          string
	snk          *sink.Sink
	tap          *sinkTap
	mysql, httpd *appboot.App
	px           *netchaos.Proxy
	reg          *telemetry.Registry
	sub          *telemetry.Subscription
	drained      chan struct{}
	records      atomic.Int64
}

func bootTopology(c runCfg, tr *Tracer, span int64, ep int) (*topology, error) {
	t := &topology{e: core.NewEngine(), drained: make(chan struct{}),
		dir: filepath.Join(c.Out, "journal", fmt.Sprintf("%d-%d", os.Getpid(), ep))}
	if err := os.RemoveAll(t.dir); err != nil {
		return nil, err
	}
	s := tr.Begin("sink.Open", span, 0)
	snk, err := sink.Open(t.dir, journal.SyncInterval)
	tr.End(s)
	if err != nil {
		return nil, fmt.Errorf("sink open: %w", err)
	}
	t.snk = snk
	t.tap = &sinkTap{s: snk, tr: tr, parent: span}
	t.e.SetDurableSink(t.tap)

	s = tr.Begin("appboot.StartApp", span, 0)
	t.mysql, err = appboot.StartApp(t.e, appboot.Spec{App: "mysql", Bug: "none"})
	tr.End(s)
	if err != nil {
		t.close(tr, span)
		return nil, err
	}
	s = tr.Begin("appboot.StartApp", span, 0)
	t.httpd, err = appboot.StartApp(t.e, appboot.Spec{App: "httpd", Bug: "log-corruption",
		Pause: harness.ShortPause, Backend: t.mysql.Addr})
	tr.End(s)
	if err != nil {
		t.close(tr, span)
		return nil, err
	}
	s = tr.Begin("netchaos.Start", span, 0)
	t.px, err = netchaos.Start(t.httpd.Addr, netchaos.Config{Seed: appkit.DeriveSeed(c.Seed, int64(ep))})
	tr.End(s)
	if err != nil {
		t.close(tr, span)
		return nil, err
	}
	t.reg = telemetry.NewRegistry()
	t.e.RegisterMetrics(t.reg)
	t.reg.WireBus("engine", t.e.Bus())
	// The buffer absorbs one second of records at the served rate, so
	// a drop means the consumer really fell behind.
	t.sub = t.e.Bus().Subscribe(4096)
	go func() {
		defer close(t.drained)
		for {
			select {
			case <-t.sub.C():
				t.records.Add(1)
			case <-t.sub.Done():
				for {
					select {
					case <-t.sub.C():
						t.records.Add(1)
					default:
						return
					}
				}
			}
		}
	}()
	return t, nil
}

// close stops everything the episode started, front to back, then
// closes the journal. It is safe on a partly booted topology.
func (t *topology) close(tr *Tracer, span int64) error {
	var errs []string
	note := func(what string, err error) {
		if err != nil {
			errs = append(errs, what+": "+err.Error())
		}
	}
	if t.px != nil {
		note("proxy close", t.px.Close())
	}
	for _, a := range []*appboot.App{t.httpd, t.mysql} {
		if a != nil {
			note(a.Name+" close", a.Close())
		}
	}
	if t.sub != nil {
		t.sub.Cancel()
		<-t.drained
	}
	t.e.SetDurableSink(nil)
	s := tr.Begin("sink.Close", span, 0)
	note("sink close", t.snk.Close())
	tr.End(s)
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// serveAcc accumulates one phase's requests and episodes.
type serveAcc struct {
	proxied, direct, mysqlDirect Dist
	requests, failed             int64
	probeRequests, probeFailed   int64 // load of the probes, outside ops_per_s
	backendErrs                  int64
	load                         time.Duration
	rates                        Dist // requests per second of each load episode, as plain values
	episodes, hits               int
	mtte                         Dist
	setups                       []time.Duration

	scrape                                  Dist
	appends                                 Dist
	stats                                   []core.StatsSnapshot
	records, drops, jrecords, jbytes, jerrs int64
	served, shed, conns, faults             int64
}

// serveLoad drives one episode's load for dur and returns when the
// load started: every client is set up first and all start together, so
// an episode's time to error does not include starting goroutines. With
// mixed set, a quarter of each client's requests go straight to httpd
// and a quarter straight to mysql, to price the proxy hop and each
// server. A non-nil until ends the load early: each client stops after
// the request it has in flight once until reports true.
func serveLoad(tr *Tracer, span int64, t *topology, gens []*reqGen, dur time.Duration,
	mixed bool, until func() bool, reqIDs *atomic.Int64, rep *Report, acc *serveAcc) (loadStart time.Time) {
	var mu sync.Mutex
	var ready, wg sync.WaitGroup
	begin := make(chan struct{})
	var stop time.Time
	for i := range gens {
		ready.Add(1)
		wg.Add(1)
		go func(g *reqGen) {
			defer wg.Done()
			proxied := netchaos.NewClient(netchaos.ClientConfig{Addr: t.px.Addr(), Attempts: 1})
			direct := netchaos.NewClient(netchaos.ClientConfig{Addr: t.httpd.Addr, Attempts: 1})
			toMySQL := netchaos.NewClient(netchaos.ClientConfig{Addr: t.mysql.Addr, Attempts: 1})
			var local serveAcc
			ready.Done()
			<-begin
			for k := 0; time.Now().Before(stop) && (until == nil || !until()); k++ {
				page := g.next()
				cl, line, d, want := proxied, fmt.Sprintf("GET /page/%d", page), &local.proxied, okReply
				if mixed && k%4 == 1 {
					cl, d = direct, &local.direct
				} else if mixed && k%4 == 3 {
					cl, line, d, want = toMySQL, stmtFor(page), &local.mysqlDirect, okStmt
				}
				id := reqIDs.Add(1)
				s := tr.Begin("netchaos.Client.Do", span, id)
				start := time.Now()
				resp, err := cl.Do(line)
				lat := time.Since(start)
				tr.End(s)
				local.requests++
				switch {
				case err != nil:
					local.failed++
				case strings.HasPrefix(resp, "502 "):
					local.failed++
					local.backendErrs++
				case want.MatchString(resp):
					d.Add(lat)
				case strings.HasPrefix(resp, "200 "):
					mu.Lock()
					rep.problem("serve: malformed reply %q to %q", resp, line)
					mu.Unlock()
					local.failed++
				default:
					local.failed++
				}
			}
			mu.Lock()
			acc.proxied.Merge(&local.proxied)
			acc.direct.Merge(&local.direct)
			acc.mysqlDirect.Merge(&local.mysqlDirect)
			acc.requests += local.requests
			acc.failed += local.failed
			acc.backendErrs += local.backendErrs
			mu.Unlock()
		}(gens[i])
	}
	ready.Wait()
	loadStart = time.Now()
	stop = loadStart.Add(dur)
	close(begin)
	wg.Wait()
	return loadStart
}

// scraper renders the current episode's registry once a second. Only
// its goroutine touches d and err until close has waited for it.
type scraper struct {
	cur  atomic.Pointer[scrapeTarget]
	stop chan struct{}
	done chan struct{}
	d    Dist
	err  error
}

type scrapeTarget struct {
	reg  *telemetry.Registry
	tr   *Tracer
	span int64
}

func startScraper() *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		var buf bytes.Buffer
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t := s.cur.Load()
			if t == nil {
				continue
			}
			buf.Reset()
			span := t.tr.Begin("telemetry.WritePrometheus", t.span, 0)
			start := time.Now()
			err := t.reg.WritePrometheus(&buf)
			d := time.Since(start)
			t.tr.End(span)
			s.d.Add(d)
			if err == nil && !bytes.Contains(buf.Bytes(), []byte("cbreak_")) {
				err = fmt.Errorf("scrape rendered no cbreak_ families")
			}
			if err != nil && s.err == nil {
				s.err = err
			}
		}
	}()
	return s
}

func (s *scraper) close() (Dist, error) {
	close(s.stop)
	<-s.done
	return s.d, s.err
}

// servePhase runs cycles of load episodes and probe bursts until dur
// has passed, and at least one cycle. Short runs shorten the episodes
// to fit.
func servePhase(c runCfg, tr *Tracer, dur time.Duration, mixed bool, rep *Report) (*serveAcc, error) {
	phase := tr.Begin("phase", 0, 0)
	defer tr.End(phase)
	acc := &serveAcc{}
	gens := make([]*reqGen, c.Workers)
	for i := range gens {
		gens[i] = newReqGen(c.Seed, i)
	}
	var reqIDs atomic.Int64
	sc := startScraper()
	per := min(episodeLen, dur/(2*episodesPerCycle))
	boots := 0
	episode := func(dur time.Duration, mixed bool, load *serveAcc) error {
		boots++
		return runEpisode(c, tr, phase, sc, gens, &reqIDs, boots, dur, mixed, rep, acc, load)
	}
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < dur; cycle++ {
		for ep := 0; ep < episodesPerCycle; ep++ {
			if err := episode(per, mixed, acc); err != nil {
				sc.close()
				return nil, err
			}
		}
		for p := 0; p < probeBurst; p++ {
			probe := &serveAcc{}
			if err := episode(probeLen, false, probe); err != nil {
				sc.close()
				return nil, err
			}
			acc.probeRequests += probe.requests
			acc.probeFailed += probe.failed
			acc.backendErrs += probe.backendErrs
		}
	}
	scrape, err := sc.close()
	if err != nil {
		rep.problem("serve: scrape: %v", err)
	}
	acc.scrape = scrape
	if acc.faults != 0 {
		rep.problem("serve: the fault-free proxy injected %d faults", acc.faults)
	}
	return acc, nil
}

// runEpisode boots a topology, drives its load for dur, and tears it
// down and checks its journal. Boot, breakpoint and layer figures go to
// acc; the load's requests and latencies go to load. A probe, whose
// load is not acc, stops its load once the breakpoint has hit and gives
// one MTTE sample.
//
// The heap is collected before the load starts, as a benchmark loop
// does before timing. Every boot allocates, so without it a collection
// cycle, whose concurrent mark runs for several milliseconds and takes
// processor time from the load, overlaps a varying share of the
// millisecond-long times to error and sets their tail.
func runEpisode(c runCfg, tr *Tracer, phase int64, sc *scraper, gens []*reqGen, reqIDs *atomic.Int64,
	boot int, dur time.Duration, mixed bool, rep *Report, acc, load *serveAcc) error {
	span := tr.Begin("episode", phase, 0)
	defer tr.End(span)
	start := time.Now()
	t, err := bootTopology(c, tr, span, boot)
	if err != nil {
		return err
	}
	acc.setups = append(acc.setups, time.Since(start))
	sc.cur.Store(&scrapeTarget{reg: t.reg, tr: tr, span: span})
	runtime.GC()

	probe := load != acc
	var until func() bool
	if probe {
		bp := t.e.Stats(httpd.BPLogOffset)
		until = func() bool { return bp.Hits() > 0 }
	}
	requests := load.requests
	loadStart := serveLoad(tr, span, t, gens, dur, mixed, until, reqIDs, rep, load)
	loaded := time.Since(loadStart)
	load.load += loaded
	if !probe {
		load.rates.AddMS(float64(load.requests-requests) / loaded.Seconds())
	}
	sc.cur.Store(nil)

	for _, s := range t.e.SnapshotAll() {
		acc.stats = append(acc.stats, s)
		if s.Name == httpd.BPLogOffset && s.Hits > 0 {
			acc.hits++
			if probe {
				acc.mtte.Add(s.LastHit.Sub(loadStart))
			}
		}
	}
	acc.episodes++
	acc.served += t.httpd.Served() + t.mysql.Served()
	acc.shed += t.httpd.ShedCount() + t.mysql.ShedCount()
	acc.conns += t.px.Connections()
	acc.faults += t.px.TotalFaults()
	acc.drops += t.sub.Drops()
	if err := t.close(tr, span); err != nil {
		rep.problem("serve: episode %d close: %v", boot, err)
	}
	acc.records += t.records.Load()
	checkJournal(tr, span, t, rep, acc)
	return nil
}

// checkJournal replays the episode's journal: it must replay clean,
// with one record per record the tap forwarded.
func checkJournal(tr *Tracer, span int64, t *topology, rep *Report, acc *serveAcc) {
	if err := t.snk.Err(); err != nil {
		acc.jerrs++
		rep.problem("serve: journal sink: %v", err)
	}
	var n int64
	s := tr.Begin("sink.Replay", span, 0)
	_, err := sink.Replay(t.dir, func(sink.Entry) error { n++; return nil })
	tr.End(s)
	if err != nil {
		rep.problem("serve: journal replay: %v", err)
	}
	if want := t.tap.n.Load(); n != want || uint64(n) != t.snk.Len() {
		rep.problem("serve: journal replayed %d records, tap forwarded %d, sink length %d", n, want, t.snk.Len())
	}
	acc.jrecords += n
	t.tap.mu.Lock()
	acc.appends.Merge(&t.tap.appends)
	t.tap.mu.Unlock()
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		rep.problem("serve: journal size: %v", err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			rep.problem("serve: journal size: %v", err)
			continue
		}
		acc.jbytes += info.Size()
	}
	if err := os.RemoveAll(t.dir); err != nil {
		rep.problem("serve: remove journal: %v", err)
	}
}

// serveMain measures the proxied episodes into e2e.
func serveMain(c runCfg, tr *Tracer, dur time.Duration, rep, e2e *Report) (*serveAcc, error) {
	acc, err := servePhase(c, tr, dur, false, rep)
	if err != nil {
		return nil, err
	}
	rep.Attempted += acc.requests + acc.probeRequests
	rep.Failed += acc.failed + acc.probeFailed
	e2e.E2E["setup_s"] = medianSeconds(acc.setups)
	e2e.E2E["ops_per_s"] = acc.rates.Quantile(0.5)
	e2e.E2E["repro_rate"] = ratio(acc.hits, acc.episodes)
	e2e.base("ops_per_s: median over %d load episodes; %d requests in %.3fs of load in all",
		acc.rates.N(), acc.requests, acc.load.Seconds())
	e2e.base("repro_rate: %d/%d boots reproduced the log corruption (load episodes and probes)", acc.hits, acc.episodes)
	e2e.setWindowedTails(&acc.proxied, "latency_p50_ms", "latency_p99_ms", 0.99)
	e2e.setWindowedTails(&acc.mtte, "mtte_p50_ms", "mtte_p90_ms", 0.90)
	return acc, nil
}

func runServe(c runCfg, tr *Tracer, rep *Report) error {
	if tr == nil {
		_, err := serveMain(c, nil, c.Dur, rep, rep)
		return err
	}
	third := c.Dur / 3
	ref, traced := newReport(), newReport()
	if _, err := serveMain(c, nil, third, rep, ref); err != nil {
		return err
	}
	main, err := serveMain(c, tr, third, rep, traced)
	if err != nil {
		return err
	}
	mix, err := servePhase(c, tr, third, true, rep)
	if err != nil {
		return err
	}
	rep.Attempted += mix.requests + mix.probeRequests
	rep.Failed += mix.failed + mix.probeFailed

	coreLayer(rep, append(main.stats, mix.stats...))
	l := rep.Layer
	l["apps.served"] = float64(main.served + mix.served)
	l["apps.shed"] = float64(main.shed + mix.shed)
	l["apps.backend_errors"] = float64(main.backendErrs + mix.backendErrs)
	l["telemetry.records"] = float64(main.records + mix.records)
	l["telemetry.sub_drops"] = float64(main.drops + mix.drops)
	var scrape, app Dist
	scrape.Merge(&main.scrape)
	scrape.Merge(&mix.scrape)
	app.Merge(&main.appends)
	app.Merge(&mix.appends)
	l["telemetry.scrape_ms_p50"] = scrape.Quantile(0.5)
	l["telemetry.scrape_ms_max"] = scrape.Quantile(1)
	rep.base("telemetry.scrape_ms: n=%d", scrape.N())
	l["journal.append_us_p50"] = app.Quantile(0.5) * 1e3
	l["journal.append_us_p99"] = app.Quantile(0.99) * 1e3
	rep.base("journal.append_us: n=%d", app.N())
	l["journal.records"] = float64(main.jrecords + mix.jrecords)
	l["journal.bytes"] = float64(main.jbytes + mix.jbytes)
	l["journal.errors"] = float64(main.jerrs + mix.jerrs)
	l["netchaos.conns"] = float64(main.conns + mix.conns)
	l["netchaos.faults"] = float64(main.faults + mix.faults)
	l["netchaos.hop_us"] = (mix.proxied.Quantile(0.5) - mix.direct.Quantile(0.5)) * 1e3
	l["httpd.direct_us"] = mix.direct.Quantile(0.5) * 1e3
	l["mysql.direct_us"] = mix.mysqlDirect.Quantile(0.5) * 1e3
	rep.base("netchaos.hop_us, httpd.direct_us, mysql.direct_us: p50 of n=%d proxied, %d direct, %d mysql",
		mix.proxied.N(), mix.direct.N(), mix.mysqlDirect.N())
	traceOverhead(rep, ref, traced)
	return nil
}
