package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/httpspec"
	"specweb/internal/leakcheck"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience"
	"specweb/internal/resilience/faults"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// liveSite is the tiny site every network test serves.
func liveSite(t *testing.T) *webgraph.Site {
	t.Helper()
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// liveServer stands up a real HTTP speculative server over site; mutate
// adjusts its config (overload control, ledgers) before construction.
func liveServer(t *testing.T, site *webgraph.Site, mutate func(*httpspec.ServerConfig)) (*httpspec.Server, string) {
	t.Helper()
	leakcheck.Check(t) // registered before ts.Close, so it settles last
	cfg := httpspec.DefaultServerConfig()
	cfg.Mode = httpspec.ModePush
	cfg.Engine.MinOccurrences = 2
	cfg.Engine.Tp = 0.3
	cfg.Metrics = obs.NewRegistry()
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := httpspec.NewServer(httpspec.NewSiteStore(site), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// replayConfig replays tr against base the way a bare trace replay
// does: every request measured, one session per client for the whole run.
func replayConfig(base string, tr *trace.Trace) Config {
	return Config{
		BaseURL:            base,
		Trace:              tr,
		Speculate:          true,
		WarmupFraction:     -1,
		SessionGapRequests: -1,
	}
}

func pageWithEmbedded(t *testing.T, site *webgraph.Site) *webgraph.Document {
	t.Helper()
	for i := range site.Docs {
		d := &site.Docs[i]
		if d.Kind == webgraph.Page && len(d.Embedded) > 0 {
			return d
		}
	}
	t.Fatal("no page with embedded objects")
	return nil
}

// testClock is a settable server clock, so training episodes can be
// spaced like real sessions.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// trainPush teaches a live server that page's embedded objects follow it,
// then refreshes the engine so the next page request pushes them. With a
// clock, each object follows 300ms after the last and episodes are an
// hour apart; without one, the server's wall clock spaces them.
func trainPush(t *testing.T, srv *httpspec.Server, base string, site *webgraph.Site, page *webgraph.Document, clk *testClock) {
	t.Helper()
	advance := func(d time.Duration) {
		if clk != nil {
			clk.Advance(d)
		}
	}
	for i := 0; i < 10; i++ {
		c := httpspec.NewClient(base, httpspec.ClientConfig{ID: "trainer"})
		if _, _, err := c.Get(page.Path); err != nil {
			t.Fatal(err)
		}
		for _, e := range page.Embedded {
			advance(300 * time.Millisecond)
			if _, _, err := c.Get(site.Doc(e).Path); err != nil {
				t.Fatal(err)
			}
		}
		advance(time.Hour)
	}
	now := time.Now()
	if clk != nil {
		now = clk.Now()
	}
	srv.Engine().Refresh(now)
}

func TestReplayEndToEnd(t *testing.T) {
	site := liveSite(t)
	srv, base := liveServer(t, site, nil)
	scfg := synth.DefaultConfig(site, nil)
	scfg.Days = 2
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 30
	scfg.LocalClients = 5
	gen, err := synth.Generate(scfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayConfig(base, gen.Trace)
	cfg.Cooperative = true
	res, winfo, info, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Errors != 0 {
		t.Errorf("%d replay errors against the server's own site", res.Counts.Errors)
	}
	if res.Counts.Requests != int64(gen.Trace.Len()) {
		t.Errorf("replayed %d of %d requests", res.Counts.Requests, gen.Trace.Len())
	}
	if res.Counts.CacheHits == 0 {
		t.Error("no cache hits during replay (revisits exist in any browsing trace)")
	}
	if winfo.Clients != len(gen.Trace.Clients()) {
		t.Errorf("clients %d != trace clients %d", winfo.Clients, len(gen.Trace.Clients()))
	}
	// The server's engine has been learning during the replay.
	if srv.Engine().Stats().Recorded == 0 {
		t.Error("server engine saw nothing")
	}
	if !info.Trace || info.Profile != "" || info.Days != 0 {
		t.Errorf("config echo = %+v, want a trace run with blank workload fields", info)
	}
}

func TestReplaySessionPurge(t *testing.T) {
	site := liveSite(t)
	_, base := liveServer(t, site, nil)
	d := &site.Docs[0]
	tr := &trace.Trace{}
	for i := 0; i < 6; i++ {
		tr.Requests = append(tr.Requests, trace.Request{Client: "r1", Doc: d.ID, Path: d.Path, Size: d.Size})
	}
	// Without purging: 1 miss + 5 hits. With purge every 2 requests: a
	// fresh fetch at each session start.
	res := mustRun(t, replayConfig(base, tr))
	if res.Counts.CacheHits != 5 {
		t.Errorf("no-purge hits = %d, want 5", res.Counts.CacheHits)
	}
	cfg := replayConfig(base, tr)
	cfg.SessionGapRequests = 2
	res = mustRun(t, cfg)
	if res.Counts.CacheHits >= 5 {
		t.Errorf("session purge had no effect: %d hits", res.Counts.CacheHits)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, _, _, err := Run(replayConfig("http://x", &trace.Trace{})); err == nil {
		t.Error("empty trace accepted")
	}
	tr := &trace.Trace{Requests: []trace.Request{{Client: "a", Path: "/x"}}}
	if _, _, _, err := Run(replayConfig("", tr)); err == nil {
		t.Error("missing base accepted")
	}
}

func TestReplayCountsErrors(t *testing.T) {
	site := liveSite(t)
	_, base := liveServer(t, site, nil)
	tr := &trace.Trace{Requests: []trace.Request{
		{Client: "a", Path: "/definitely/missing"},
		{Client: "a", Path: site.Docs[0].Path},
	}}
	res := mustRun(t, replayConfig(base, tr))
	if res.Counts.Errors != 1 {
		t.Errorf("errors = %d, want 1", res.Counts.Errors)
	}
}

func TestChaosReplayAvailability(t *testing.T) {
	// The acceptance bar: a 20% injected connection-error rate with
	// 4-attempt retries must keep request availability above 99%.
	site := liveSite(t)
	_, base := liveServer(t, site, nil)
	scfg := synth.DefaultConfig(site, nil)
	scfg.Days = 1
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 20
	scfg.LocalClients = 5
	gen, err := synth.Generate(scfg, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayConfig(base, gen.Trace)
	cfg.Faults = faults.Config{Seed: 42, ErrorRate: 0.2}
	cfg.Retry = resilience.RetryConfig{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
	}
	cfg.Timeout = 10 * time.Second
	c := mustRun(t, cfg).Counts
	if c.Retries == 0 {
		t.Fatal("injected errors caused no retries; the chaos run tested nothing")
	}
	if avail := float64(c.Requests-c.Errors) / float64(c.Requests); avail <= 0.99 {
		t.Errorf("availability = %.4f under 20%% faults, want > 0.99 (errors %d of %d)",
			avail, c.Errors, c.Requests)
	}
}

// TestNetworkReportServerLedgers: a network run reads the live server's
// overload and checkpoint ledgers from /spec/stats, and a server without
// either leaves both sections out of the report entirely.
func TestNetworkReportServerLedgers(t *testing.T) {
	site := liveSite(t)
	tr := &trace.Trace{}
	for i := 0; i < 8; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Client: trace.ClientID(fmt.Sprintf("c%d", i%2)),
			Path:   site.Docs[0].Path,
		})
	}

	_, plain := liveServer(t, site, nil)
	rep, err := RunReport(replayConfig(plain, tr), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.Overload != nil || rep.Spec.Checkpoint != nil {
		t.Errorf("plain server grew ledgers: overload %+v, checkpoint %+v", rep.Spec.Overload, rep.Spec.Checkpoint)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"overload"`, `"checkpoint"`} {
		if strings.Contains(string(b), key) {
			t.Errorf("report JSON leaks %s key: %s", key, b)
		}
	}

	store, err := checkpoint.NewStore(checkpoint.StoreConfig{Dir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv, guarded := liveServer(t, site, func(cfg *httpspec.ServerConfig) {
		cfg.Engine.Checkpoint = store
		cfg.Admission = overload.NewController(overload.Config{Metrics: cfg.Metrics})
		cfg.Governor = overload.NewGovernor(overload.GovernorConfig{Metrics: cfg.Metrics})
	})
	srv.Engine().Refresh(time.Now()) // one checkpoint save to report
	res := mustRun(t, replayConfig(guarded, tr))
	if res.Overload == nil || res.Overload.Admission == nil {
		t.Fatalf("overload ledger not scraped: %+v", res.Overload)
	}
	if got, want := res.Overload.Admission.Demand.Admitted, res.Counts.Requests-res.Counts.CacheHits; got < want {
		t.Errorf("scraped demand admitted = %d, want >= %d client misses", got, want)
	}
	if res.Checkpoint == nil || res.Checkpoint.Saved == 0 {
		t.Errorf("checkpoint ledger not scraped: %+v", res.Checkpoint)
	}
}

// TestLowPriorityClients pins the low-priority client set to the stable
// FNV hash (so one trace tags the same clients on every run) and checks
// that exactly those clients' requests reach the server marked low.
func TestLowPriorityClients(t *testing.T) {
	want := map[trace.ClientID]bool{}
	for _, id := range []trace.ClientID{"c00", "c05", "c07", "c08", "c11", "c12", "c17"} {
		want[id] = true
	}
	tr := &trace.Trace{}
	for i := 0; i < 20; i++ {
		id := trace.ClientID(fmt.Sprintf("c%02d", i))
		if got := lowPriorityClient(id, 0.3); got != want[id] {
			t.Errorf("lowPriorityClient(%s, 0.3) = %v, want %v", id, got, want[id])
		}
		tr.Requests = append(tr.Requests, trace.Request{Client: id, Path: "/doc"})
	}
	if lowPriorityClient("c00", 0) {
		t.Error("fraction 0 tagged a client")
	}

	leakcheck.Check(t)
	var mu sync.Mutex
	seen := map[trace.ClientID]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/doc" {
			mu.Lock()
			seen[trace.ClientID(r.Header.Get(httpspec.HeaderClient))] = r.Header.Get(httpspec.HeaderPriority)
			mu.Unlock()
		}
		fmt.Fprint(w, "body")
	}))
	defer ts.Close()
	cfg := replayConfig(ts.URL, tr)
	cfg.LowPriority = 0.3
	if res := mustRun(t, cfg); res.Counts.Errors != 0 {
		t.Fatalf("%d errors", res.Counts.Errors)
	}
	if len(seen) != 20 {
		t.Fatalf("server saw %d clients, want 20", len(seen))
	}
	for id, prio := range seen {
		if (prio == "low") != want[id] {
			t.Errorf("client %s sent %s %q, low-priority set says %v", id, httpspec.HeaderPriority, prio, want[id])
		}
	}
}

// TestAttribFeedbackReachesServer: with AttribFeedback a network run
// piggybacks resolution tokens, so the live server's own ledger learns
// the fate of what it pushed; without it the server resolves nothing.
func TestAttribFeedbackReachesServer(t *testing.T) {
	site := liveSite(t)
	page := pageWithEmbedded(t, site)
	var other *webgraph.Document
	for i := range site.Docs {
		d := &site.Docs[i]
		if d.Kind == webgraph.Page && d.ID != page.ID {
			other = d
			break
		}
	}
	// Each client demands the page (pushing its embedded objects), hits
	// one pushed object (resolving it consumed), then misses on another
	// page, which carries the resolution token to the server.
	tr := &trace.Trace{}
	for i := 0; i < 6; i++ {
		id := trace.ClientID(fmt.Sprintf("k%d", i))
		for _, p := range []string{page.Path, site.Doc(page.Embedded[0]).Path, other.Path} {
			tr.Requests = append(tr.Requests, trace.Request{Client: id, Path: p})
		}
	}
	for _, feedback := range []bool{false, true} {
		led := attrib.NewLedger(site.NumDocs(), obs.NewRegistry())
		clk := &testClock{now: time.Date(1995, time.June, 1, 9, 0, 0, 0, time.UTC)}
		srv, base := liveServer(t, site, func(cfg *httpspec.ServerConfig) {
			cfg.Attrib = led
			cfg.Clock = clk.Now
		})
		trainPush(t, srv, base, site, page, clk)
		cfg := replayConfig(base, tr)
		cfg.AttribFeedback = feedback
		res := mustRun(t, cfg)
		if res.Counts.Pushed == 0 {
			t.Fatal("trained server pushed nothing")
		}
		tot := led.Report(10).Totals
		resolved := tot.Consumed + tot.Wasted
		switch {
		case feedback && resolved == 0:
			t.Errorf("feedback run: server ledger resolved nothing (%d deliveries)", tot.Deliveries)
		case !feedback && resolved != 0:
			t.Errorf("run without feedback: server ledger resolved %d deliveries", resolved)
		}
	}
}

// slowStore adds a fixed service delay per content fetch, making
// speculative pushes genuinely expensive so open-loop overload is
// reproducible on any machine.
type slowStore struct {
	httpspec.Store
	delay time.Duration
}

func (s slowStore) Content(id webgraph.DocID) ([]byte, bool) {
	time.Sleep(s.delay)
	return s.Store.Content(id)
}

// TestOpenLoopOverloadAcceptance is the overload acceptance bar: driven
// at roughly twice the speculative closed-loop saturation rate with the
// governor active, demand p99 must stay near the no-speculation baseline
// while at least 90% of everything shed is speculative-class work.
// Bounds are deliberately loose — the point is that the ladder sheds
// speculation, not demand.
func TestOpenLoopOverloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock open-loop run")
	}
	site := liveSite(t)
	page := pageWithEmbedded(t, site)
	// The store delay dominates per-request service time so that
	// scheduler noise on a busy test machine (a few ms) cannot flip
	// which side of saturation the run lands on.
	const delay = 10 * time.Millisecond

	// run drives tr at a fresh governed slow-store server; trained
	// selects whether the engine pushes (speculative run) or stays cold
	// (baseline).
	run := func(tr *trace.Trace, trained bool) *Result {
		leakcheck.Check(t)
		reg := obs.NewRegistry()
		cfg := httpspec.DefaultServerConfig()
		cfg.Mode = httpspec.ModePush
		cfg.Engine.MinOccurrences = 2
		cfg.Engine.Tp = 0.3
		cfg.Metrics = reg
		ctrl := overload.NewController(overload.Config{
			DemandSlots: 4, SpecSlots: 2,
			QueueDepth: 2048, MaxWait: 2 * time.Second,
			Metrics: reg,
		})
		cfg.Admission = ctrl
		cfg.Governor = overload.NewGovernor(overload.GovernorConfig{
			Target:   2*delay + delay/2,
			Alpha:    0.4,
			Hold:     25 * time.Millisecond,
			Pressure: ctrl.Pressure,
			Metrics:  reg,
		})
		srv, err := httpspec.NewServer(slowStore{Store: httpspec.NewSiteStore(site), delay: delay}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if trained {
			trainPush(t, srv, ts.URL, site, page, nil)
		}
		// With 4 demand slots and (1+len(embedded))×10ms of store time
		// per speculative response, closed-loop speculative saturation
		// is at most 4/(2×10ms) = 200 req/s, so 250 req/s oversubscribes
		// it — while the no-speculation path (one 10ms store call per
		// response, 400 req/s capacity) keeps ~40% headroom even on a
		// noisy machine.
		rcfg := replayConfig(ts.URL, tr)
		rcfg.OpenLoop, rcfg.Rate, rcfg.Burst = true, 250, 8
		// The open loop never has more requests in flight than Workers
		// (each worker serves its clients in order). 1024 workers for 400
		// one-request clients leaves few hash collisions, so arrivals
		// reach the server on schedule and keep it oversubscribed rather
		// than queueing behind each other client-side.
		rcfg.Workers = 1024
		return mustRun(t, rcfg)
	}

	tr := &trace.Trace{}
	for i := 0; i < 400; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Client: trace.ClientID(fmt.Sprintf("open-%03d", i)),
			Path:   page.Path,
		})
	}
	base := run(tr, false)
	spec := run(tr, true)

	ov := spec.Overload
	if ov == nil {
		t.Fatal("open-loop report missing the server's overload ledger")
	}
	specShed, demandShed := ov.SpeculativeShed(), ov.DemandShed
	shedRatio := 1.0
	if total := specShed + demandShed; total > 0 {
		shedRatio = float64(specShed) / float64(total)
	}
	baseP99, specP99 := base.Timing.Latency.P99, spec.Timing.Latency.P99
	t.Logf("baseline p99 %.1fms; governed p99 %.1fms, pushed %d, shed %d spec / %d demand (ratio %.3f), max rung %d",
		baseP99, specP99, spec.Counts.Pushed, specShed, demandShed, shedRatio, ov.Governor.MaxRungSeen)
	if specShed == 0 {
		t.Fatal("governor never shed speculative work at 2x saturation")
	}
	if ov.Governor.MaxRungSeen < overload.RungNoPush {
		t.Errorf("ladder never climbed: max rung %d", ov.Governor.MaxRungSeen)
	}
	if shedRatio < 0.9 {
		t.Errorf("shed speculative ratio = %.3f, want >= 0.9 (shed must be speculation, not demand)", shedRatio)
	}
	// Loose deterministic bound on the latency claim: the governed run's
	// demand p99 must stay within a small multiple of the
	// no-speculation baseline instead of diverging toward the 2s queue
	// limit as an ungoverned overload would. The additive slack covers
	// the backlog built during the governor's climb (a few Hold
	// periods of oversubscribed arrivals draining at ~150 req/s).
	if limit := 3*baseP99 + 250; specP99 > limit {
		t.Errorf("governed demand p99 %.1fms exceeds %.1fms (3x baseline + 250ms slack)", specP99, limit)
	}
}

// TestConfigEchoOmitsTraceKnobs: the config echo of a generated-workload
// run carries none of the trace-replay keys, so its reports stay
// byte-identical to ones written before those keys existed.
func TestConfigEchoOmitsTraceKnobs(t *testing.T) {
	b, err := json.Marshal(ConfigInfo{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trace", "low_priority", "attrib_feedback"} {
		if strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("generated-workload config echo carries %q: %s", key, b)
		}
	}
}
