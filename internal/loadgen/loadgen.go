package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/core"
	"specweb/internal/estguard"
	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience"
	"specweb/internal/resilience/faults"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// Config parameterizes one load-generation run (one arm).
type Config struct {
	// Workload selects the synthetic site/trace model; the zero value
	// means experiments.SmallWorkload(). The trace supplies the session
	// mix: client population, per-client request order, and session
	// boundaries all come from the generated trace.
	Workload experiments.WorkloadConfig
	// Seed drives the generator's own randomness (think-time jitter)
	// through per-worker stats.RNG streams; 0 uses Workload.Seed.
	Seed int64
	// Workers is the number of concurrent client drivers (default 4).
	// Clients are partitioned across workers by a stable hash, so each
	// client's request order is preserved no matter the worker count.
	Workers int
	// WarmupFraction is the leading share of the trace replayed
	// sequentially on trace time to train the speculation engine before
	// measurement begins (default 0.3; negative means no warmup, so
	// every request is measured). The engine is refreshed once at the
	// warmup boundary and its model then stays frozen, which is what
	// makes the measured counters deterministic under concurrency.
	WarmupFraction float64

	// Speculate selects the arm: true drives speculative clients
	// against Mode; false drives plain clients (no bundles, no
	// prefetching) against a push-mode server, which never speculates
	// for a client that did not opt in.
	Speculate bool
	// Mode is the server's delivery mode for the speculative arm; the
	// zero value is ModePush.
	Mode httpspec.Mode
	// MaxPush bounds documents pushed per response (default 16).
	MaxPush int
	// Cooperative piggybacks cache digests; PrefetchThreshold enables
	// hint-driven prefetching (0 disables).
	Cooperative       bool
	PrefetchThreshold float64
	// SessionGapRequests ends a client's session after this many
	// requests (default 50; negative disables).
	SessionGapRequests int
	// Reps repeats each arm and keeps the best-throughput rep's Timing
	// (default 1). The deterministic section is identical across reps,
	// so extra reps only de-noise the wall-clock metrics: best-of-N is
	// what makes a 10% regression gate hold on a shared CI runner.
	Reps int

	// OpenLoop switches to paced arrival at Rate requests/second in
	// groups of Burst: the dispatcher hands requests to workers on
	// schedule without waiting for responses, and latency is measured
	// from the scheduled arrival (so queueing delay is charged — no
	// coordinated omission). The default closed loop has each worker
	// walk its clients' requests back-to-back, separated by Think.
	OpenLoop bool
	Rate     float64
	Burst    int
	// Think and ThinkJitter separate a worker's consecutive requests in
	// closed-loop mode: Think plus a uniform draw from [0, ThinkJitter)
	// off the worker's RNG stream.
	Think       time.Duration
	ThinkJitter time.Duration

	// BaseURL drives an external server instead of the in-process
	// stack. Network runs measure real sockets but cannot promise the
	// deterministic section stays byte-identical (the server's own
	// clock governs its speculation refreshes). The server's overload and
	// checkpoint ledgers are read from one end-of-run GET /spec/stats.
	BaseURL string
	// Trace, valid only with BaseURL, replays this recorded trace (e.g. a
	// CLF log) instead of generating Workload. Paths the live server does
	// not serve count as errors.
	Trace *trace.Trace `json:"-"`
	// LowPriority tags roughly this fraction of clients, chosen by a
	// stable hash of the client ID, with Spec-Priority: low, the demand
	// class an overloaded server sheds first. 0 tags nobody.
	LowPriority float64
	// AttribFeedback piggybacks Spec-Attrib resolution tokens on demand
	// requests so a live server's own ledger (specd /debug/attrib) learns
	// the fate of what it speculated.
	AttribFeedback bool
	// RealClock makes the in-process server use wall-clock time instead
	// of the frozen trace clock — required when an overload Governor
	// should see real latencies, at the cost of count determinism.
	RealClock bool
	// Faults injects transport faults (seeded); chaos runs are not
	// byte-deterministic because workers consume the fault stream in
	// completion order.
	Faults faults.Config
	// Timeout bounds each request attempt; Retry configures demand
	// retries through one shared budget.
	Timeout time.Duration
	Retry   resilience.RetryConfig

	// Estguard installs the estimator-hardening guard on the in-process
	// server: client classification/quarantine, drift-triggered early
	// refresh, and confidence-damped snapshots (see internal/estguard).
	// The guard's decisions are functions of the recorded trace and the
	// seed, so guarded runs remain byte-deterministic.
	Estguard bool
	// MaxRows and RowTopK select the memory-bounded streaming estimator
	// on the in-process server (see core.EngineConfig); both zero keeps
	// the exact estimator and a byte-identical report.
	MaxRows int
	RowTopK int
	// Overload installs an admission controller and governor on the
	// in-process server; AdmissionTune adjusts the controller config
	// before construction. With generous slots the controller admits
	// everything and the run stays deterministic. The tuning hooks are
	// process-local and excluded from the distributed wire job.
	Overload      bool
	AdmissionTune func(*overload.Config) `json:"-"`
	// ServerTune is the escape hatch for any other server knob.
	ServerTune func(*httpspec.ServerConfig) `json:"-"`

	// Restart, when non-nil, splits the measurement phase with a
	// simulated server crash at CrashFraction and rebuilds the stack
	// according to Mode (see RestartConfig). In-process closed-loop runs
	// only; per-phase counters land in Result.Restart.
	Restart *RestartConfig

	// Stream drives the workload from per-client seeded cursors
	// (synth.Stream) instead of a materialized trace: warmup replays the
	// canonical k-way merge sequentially, then each closed-loop worker
	// regenerates just its own clients' streams (the open loop paces from
	// a fresh global merge). Peak memory is O(clients + concurrent
	// sessions) instead of O(trace); the deterministic report section is
	// byte-identical to materializing the same stream and running the
	// ordinary path (see StreamMaterialize). Scenarios and the restart
	// harness require the materialized trace and are rejected.
	Stream bool
	// StreamMaterialize (with Stream) builds the same per-client stream
	// but materializes it into a trace and runs the ordinary drive — the
	// conformance oracle the streamed path is byte-compared against.
	StreamMaterialize bool

	// ShardIndex/ShardCount restrict the measurement phase to the
	// clients hashed to this shard (same stable hash as the worker
	// partition). Every shard replays the full warmup — so all shards
	// freeze the identical speculation model — and then drives only its
	// own clients; a coordinator merges the shards' partial reports into
	// a document byte-identical to the single-process run (see Partial).
	// ShardCount 0 or 1 means unsharded.
	ShardIndex int
	ShardCount int

	// raw, when non-nil, receives the arm's pre-aggregation state
	// (merged histogram, miss accumulators, attrib export, overload
	// freeze snapshot) for assembly into a Partial. Process-local.
	raw *armRaw
}

// armRaw is one arm's pre-aggregation state, captured for partial
// reports: everything a coordinator needs to recompute the aggregate
// formulas over merged shards instead of over one process's workers.
type armRaw struct {
	Hist           HistState
	MissDurNS      int64
	MissCount      int64
	ElapsedNS      int64
	Attrib         *attrib.Export
	OverloadFreeze *httpspec.ServerOverloadStats
}

func (c Config) withDefaults() Config {
	if c.Workload.Profile.Pages == 0 {
		c.Workload = experiments.SmallWorkload()
	}
	if c.Seed == 0 {
		c.Seed = c.Workload.Seed
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	switch {
	case c.WarmupFraction < 0:
		c.WarmupFraction = 0
	case c.WarmupFraction == 0 || c.WarmupFraction >= 0.95:
		c.WarmupFraction = 0.3
	}
	if c.MaxPush == 0 {
		c.MaxPush = 16
	}
	if c.SessionGapRequests == 0 {
		c.SessionGapRequests = 50
	}
	if c.SessionGapRequests < 0 {
		c.SessionGapRequests = 0
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if !c.Speculate {
		c.Mode = httpspec.ModePush
		c.Cooperative = false
		c.PrefetchThreshold = 0
	}
	return c
}

// attribTopDocs is how many per-doc attribution rows a BENCH report
// carries: enough to name the heavy hitters without bloating the file.
const attribTopDocs = 10

// validateModes rejects flag combinations the streaming and sharded
// drives cannot honor.
func (c Config) validateModes() error {
	if c.ShardCount < 0 || c.ShardIndex < 0 {
		return fmt.Errorf("loadgen: negative shard index/count")
	}
	if c.ShardCount > 1 || c.ShardIndex > 0 {
		if c.ShardIndex >= c.ShardCount {
			return fmt.Errorf("loadgen: shard index %d out of range for %d shards", c.ShardIndex, c.ShardCount)
		}
		switch {
		case c.Restart != nil:
			return fmt.Errorf("loadgen: restart harness cannot run sharded")
		case c.Estguard:
			return fmt.Errorf("loadgen: estguard cannot run sharded (warmup feedback sees only shard clients)")
		case c.MaxRows > 0 || c.RowTopK > 0:
			return fmt.Errorf("loadgen: bounded-estimator stats cannot be merged across shards")
		case c.BaseURL != "":
			return fmt.Errorf("loadgen: network mode cannot run sharded (each shard replays the full warmup)")
		case c.RealClock:
			return fmt.Errorf("loadgen: real-clock mode cannot run sharded")
		case c.Faults.Enabled():
			return fmt.Errorf("loadgen: fault injection cannot run sharded (the fault stream is per-process)")
		}
	}
	if c.Stream && c.Restart != nil {
		return fmt.Errorf("loadgen: restart harness requires the materialized trace")
	}
	if c.Trace != nil {
		switch {
		case c.BaseURL == "":
			return fmt.Errorf("loadgen: a supplied trace needs a live server (BaseURL)")
		case c.Stream:
			return fmt.Errorf("loadgen: a supplied trace cannot be streamed")
		}
	}
	return nil
}

// lowPriorityClient decides, by a stable hash, whether a client falls in
// the low-priority fraction — deterministic across runs of one trace.
func lowPriorityClient(id trace.ClientID, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return float64(h.Sum32()%1000) < fraction*1000
}

// inShard reports whether a client's measurement phase belongs to this
// process. The hash is the same stable FNV used for the in-process
// worker partition, so shard membership never depends on trace position.
func (c Config) inShard(id trace.ClientID) bool {
	if c.ShardCount <= 1 {
		return true
	}
	return workerOf(id, c.ShardCount) == c.ShardIndex
}

// countPass drains a stream once to learn its length, client set (in
// first-appearance order, matching Trace.Clients), and first timestamp —
// without retaining any request.
func countPass(s trace.Stream) (int, []trace.ClientID, time.Time) {
	var (
		n     int
		order []trace.ClientID
		first time.Time
	)
	seen := make(map[trace.ClientID]bool)
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		if n == 0 {
			first = req.Time
		}
		n++
		if !seen[req.Client] {
			seen[req.Client] = true
			order = append(order, req.Client)
		}
	}
	return n, order, first
}

func modeName(m httpspec.Mode) string {
	switch m {
	case httpspec.ModeHints:
		return "hints"
	case httpspec.ModeHybrid:
		return "hybrid"
	}
	return "push"
}

// run is the shared state of one arm.
type run struct {
	cfg     Config
	base    string
	hc      *http.Client
	srv     *httpspec.Server // nil in network mode
	clients map[trace.ClientID]*Client
	// order preserves first-appearance order for deterministic
	// aggregation (map iteration order must not leak into anything).
	order []trace.ClientID
	// aggregate stashes the merged wall-clock ledger here so partial
	// reports can export the raw histogram and miss accumulators.
	aggHist    *Hist
	missDurSum time.Duration
	missCount  int64
}

// Client pairs the protocol client with its warmup snapshot and session
// counter. crash holds the stats snapshot taken at the restart
// harness's crash barrier, so per-phase deltas can be reported.
type Client struct {
	c            *httpspec.Client
	warmup       httpspec.ClientStats
	crash        httpspec.ClientStats
	sinceSession int
}

// workerResult is one worker's wall-clock ledger.
type workerResult struct {
	hist       *Hist
	errors     int64
	missDurSum time.Duration
	missCount  int64
}

// Run executes one arm: build the workload, stand up the stack, replay
// the warmup sequentially on trace time, freeze the speculation model,
// then drive the measurement phase from Workers concurrent client
// drivers. The returned Result's Counts and Ratios are deterministic for
// a given config (virtual clock, no faults); Timing is wall-clock.
func Run(cfg Config) (*Result, *WorkloadInfo, ConfigInfo, error) {
	cfg = cfg.withDefaults()
	info := ConfigInfo{
		Profile:            cfg.Workload.Profile.Name,
		Days:               cfg.Workload.Days,
		SessionsPerDay:     cfg.Workload.SessionsPerDay,
		Seed:               cfg.Seed,
		Workers:            cfg.Workers,
		WarmupFraction:     cfg.WarmupFraction,
		Mode:               modeName(cfg.Mode),
		MaxPush:            cfg.MaxPush,
		Cooperative:        cfg.Cooperative,
		PrefetchThreshold:  cfg.PrefetchThreshold,
		SessionGapRequests: cfg.SessionGapRequests,
		Reps:               cfg.Reps,
		OpenLoop:           cfg.OpenLoop,
		Rate:               cfg.Rate,
		Burst:              cfg.Burst,
		ThinkMS:            float64(cfg.Think) / 1e6,
		RealClock:          cfg.RealClock,
		Network:            cfg.BaseURL != "",
		Chaos:              cfg.Faults.Enabled(),
		Overload:           cfg.Overload,
		Scenario:           cfg.Workload.Scenario,
		Estguard:           cfg.Estguard,
		MaxRows:            cfg.MaxRows,
		RowTopK:            cfg.RowTopK,
		Stream:             cfg.Stream,
		LowPriority:        cfg.LowPriority,
		AttribFeedback:     cfg.AttribFeedback,
	}
	if info.Scenario == "none" {
		info.Scenario = ""
	}
	if cfg.Trace != nil {
		// The supplied trace replaces the generated workload entirely.
		info.Profile, info.Days, info.SessionsPerDay, info.Scenario = "", 0, 0, ""
		info.Trace = true
	}
	if err := cfg.validateModes(); err != nil {
		return nil, nil, info, err
	}

	// The workload: a supplied trace, a materialized one (the classic
	// path, and the StreamMaterialize oracle), or a per-client stream
	// generator the drive regenerates from on demand.
	var (
		site *webgraph.Site
		tr   *trace.Trace
		gen  *synth.Stream
	)
	switch {
	case cfg.Trace != nil:
		tr = cfg.Trace
	case cfg.Stream:
		sw, err := experiments.BuildStream(cfg.Workload)
		if err != nil {
			return nil, nil, info, err
		}
		site = sw.Site
		if cfg.StreamMaterialize {
			tr = trace.Materialize(sw.Gen.Merged())
		} else {
			gen = sw.Gen
		}
	default:
		wl, err := experiments.Build(cfg.Workload)
		if err != nil {
			return nil, nil, info, err
		}
		site = wl.Site
		tr = wl.Trace
	}

	var (
		n     int
		order []trace.ClientID
		first time.Time
	)
	if tr != nil {
		if n = tr.Len(); n > 0 {
			order = tr.Clients()
			first = tr.Requests[0].Time
		}
	} else {
		// Counting pass: one full generation to fix the warmup boundary
		// and client set. The streamed drive trades repeated generation
		// (cheap, CPU-bound) for never holding the trace (expensive,
		// O(requests) memory).
		n, order, first = countPass(gen.Merged())
	}
	if n == 0 {
		return nil, nil, info, fmt.Errorf("loadgen: empty trace")
	}
	warmN := int(cfg.WarmupFraction * float64(n))
	winfo := &WorkloadInfo{
		Clients:  len(order),
		Trace:    n,
		Warmup:   warmN,
		Measured: n - warmN,
	}
	if site != nil {
		winfo.Pages, winfo.Bytes = site.NumPages(), site.TotalBytes()
	}

	r := &run{cfg: cfg, clients: make(map[trace.ClientID]*Client)}

	// One shared attribution ledger for the speculative arm. Capacity
	// covers the whole site, so the space-saving sketch never evicts and
	// its updates commute — the report is byte-identical no matter how
	// many workers raced or in what order their sessions resolved. In a
	// sharded run only this shard's clients feed it: ledger operations
	// partition exactly by client, so the coordinator's merge of shard
	// exports reproduces the single-process ledger.
	var led *attrib.Ledger
	if cfg.Speculate {
		led = attrib.NewLedger(ledgerCapacity(site, tr), obs.NewRegistry())
	}

	// The virtual clock: warmup advances it along trace time; after the
	// freeze every server-side timestamp is the warmup boundary, so the
	// engine never auto-refreshes mid-measurement and its speculation
	// model stays the frozen snapshot.
	var vnow atomic.Int64
	vnow.Store(first.UnixNano())
	vclock := func() time.Time { return time.Unix(0, vnow.Load()) }

	// maybeFaulty wraps a transport with the seeded fault injector when
	// any chaos knob is set.
	maybeFaulty := func(rt http.RoundTripper, reg *obs.Registry) http.RoundTripper {
		if !cfg.Faults.Enabled() {
			return rt
		}
		fcfg := cfg.Faults
		fcfg.Metrics = reg
		return faults.New(fcfg).Transport(rt)
	}

	rst := cfg.Restart
	if rst != nil {
		var err error
		if rst, err = rst.validate(cfg); err != nil {
			return nil, nil, info, err
		}
		info.Restart = rst
	}

	var guard *estguard.Guard
	var ckstore *checkpoint.Store
	var swap *switchHandler
	var rebuild func() (*httpspec.Server, error)
	if cfg.BaseURL != "" {
		r.base = cfg.BaseURL
		r.hc = &http.Client{Transport: maybeFaulty(nil, nil)}
	} else {
		if rst != nil && rst.Mode != RestartNone {
			// One durable store spans the crash: server A checkpoints
			// into it, server B recovers (or deliberately doesn't) from
			// it. The fingerprint binds frames to the workload identity.
			dir := rst.StateDir
			if dir == "" {
				tmp, err := os.MkdirTemp("", "specweb-restart-")
				if err != nil {
					return nil, nil, info, err
				}
				defer os.RemoveAll(tmp)
				dir = tmp
				rst.StateDir = tmp
			}
			ecfg := httpspec.DefaultServerConfig().Engine
			ecfg.MaxRows = cfg.MaxRows
			ecfg.RowTopK = cfg.RowTopK
			fp := checkpoint.Combine(ecfg.StateFingerprint(),
				checkpoint.Fingerprint(fmt.Sprintf("loadgen/v1|profile=%s|seed=%d",
					cfg.Workload.Profile.Name, cfg.Seed)))
			var err error
			ckstore, err = checkpoint.NewStore(checkpoint.StoreConfig{
				Dir: dir, Fingerprint: fp, Metrics: obs.NewRegistry(),
			})
			if err != nil {
				return nil, nil, info, err
			}
		}
		// rebuild constructs a complete fresh stack — new registry, new
		// engine, new guard — exactly as a restarted process would. The
		// restart harness calls it a second time after the crash.
		rebuild = func() (*httpspec.Server, error) {
			store := httpspec.NewSiteStore(site)
			scfg := httpspec.DefaultServerConfig()
			scfg.Mode = cfg.Mode
			scfg.MaxPush = cfg.MaxPush
			scfg.Engine.MaxRows = cfg.MaxRows
			scfg.Engine.RowTopK = cfg.RowTopK
			scfg.Metrics = obs.NewRegistry()
			scfg.Tracer = obs.NewTracer(64)
			if ckstore != nil {
				scfg.Engine.Checkpoint = ckstore
			}
			if cfg.Estguard {
				guard = estguard.New(estguard.Config{Seed: cfg.Seed, Metrics: scfg.Metrics})
				scfg.Engine.Guard = guard
				if led != nil {
					// Feed the snapshot judge from the shared client-side
					// ledger: its totals at each (sequential, warmup-phase)
					// refresh are deterministic.
					scfg.Engine.Feedback = func() (int64, int64, int64) {
						t := led.TotalsSnapshot()
						return t.Deliveries, t.Consumed, t.Wasted
					}
				}
			}
			if cfg.RealClock {
				scfg.Clock = nil // time.Now
			} else {
				scfg.Clock = vclock
				store.SetClock(vclock)
			}
			if cfg.Overload {
				ocfg := overload.Config{Clock: scfg.Clock, Metrics: scfg.Metrics}
				if cfg.AdmissionTune != nil {
					cfg.AdmissionTune(&ocfg)
				}
				scfg.Admission = overload.NewController(ocfg)
				scfg.Governor = overload.NewGovernor(overload.GovernorConfig{
					Clock:    scfg.Clock,
					Metrics:  scfg.Metrics,
					Pressure: nil,
				})
			}
			if cfg.ServerTune != nil {
				cfg.ServerTune(&scfg)
			}
			srv, err := httpspec.NewServer(store, scfg)
			if err != nil {
				return nil, err
			}
			r.srv = srv
			return srv, nil
		}
		srv, err := rebuild()
		if err != nil {
			return nil, nil, info, err
		}
		r.base = "http://specbench.invalid"
		var rt http.RoundTripper = NewHandlerTransport(srv)
		if rst != nil {
			// The swap point: clients keep their transport across the
			// crash; only the handler behind it is replaced.
			swap = newSwitchHandler(srv)
			rt = NewHandlerTransport(swap)
		}
		r.hc = &http.Client{Transport: maybeFaulty(rt, obs.NewRegistry())}
	}

	// One retrier shares the retry budget across all clients.
	var retrier *resilience.Retrier
	if cfg.Retry.MaxAttempts > 1 {
		retrier = resilience.NewRetrier(cfg.Retry)
	}
	for _, id := range order {
		r.order = append(r.order, id)
		// In a sharded run the attribution ledger is attached only to
		// this shard's clients: non-shard clients replay warmup without
		// recording deliveries, exactly the slice of ledger traffic that
		// belongs to some other shard.
		var clientLed *attrib.Ledger
		if led != nil && cfg.inShard(id) {
			clientLed = led
		}
		var prio string
		if lowPriorityClient(id, cfg.LowPriority) {
			prio = "low"
		}
		r.clients[id] = &Client{c: httpspec.NewClient(r.base, httpspec.ClientConfig{
			ID:                string(id),
			AcceptBundles:     cfg.Speculate,
			Cooperative:       cfg.Cooperative,
			PrefetchThreshold: cfg.PrefetchThreshold,
			HTTP:              r.hc,
			Timeout:           cfg.Timeout,
			Retrier:           retrier,
			Priority:          prio,
			Attrib:            clientLed,
			AttribFeedback:    cfg.AttribFeedback,
		})}
	}

	// Warmup: sequential, on trace time, over the FULL client population
	// even when sharded — every shard must freeze the identical
	// speculation model. Auto-refreshes fire exactly as the timestamps
	// dictate.
	var warmupErrors int64
	warm := func(req *trace.Request) {
		vnow.Store(req.Time.UnixNano())
		cl := r.clients[req.Client]
		r.sessionGap(cl)
		if _, _, err := cl.c.Get(req.Path); err != nil {
			warmupErrors++
		}
	}
	freezeAt := first
	// skips[w] counts warmup-phase requests belonging to worker w's
	// shard clients: the streamed measurement workers regenerate their
	// clients' full streams and discard exactly that prefix.
	var skips []int
	if tr != nil {
		for i := 0; i < warmN; i++ {
			warm(&tr.Requests[i])
		}
		if warmN > 0 {
			freezeAt = tr.Requests[warmN-1].Time
		}
	} else {
		skips = make([]int, cfg.Workers)
		ws := gen.Merged()
		for i := 0; i < warmN; i++ {
			req, ok := ws.Next()
			if !ok {
				break
			}
			warm(&req)
			freezeAt = req.Time
			if cfg.inShard(req.Client) {
				skips[workerOf(req.Client, cfg.Workers)]++
			}
		}
	}
	vnow.Store(freezeAt.UnixNano())
	if r.srv != nil {
		r.srv.Engine().Refresh(freezeAt)
	}
	for _, id := range r.order {
		cl := r.clients[id]
		cl.warmup = cl.c.Stats()
	}

	// The overload freeze snapshot: a sharded run reports it so the
	// coordinator can reconstruct single-process totals as
	// freeze + Σ per-shard measurement deltas.
	var ovFreeze *httpspec.ServerOverloadStats
	if cfg.Overload && r.srv != nil && cfg.raw != nil {
		ov := r.srv.OverloadStats()
		ovFreeze = &ov
	}

	// Measurement: partition the remaining requests by owning worker
	// (stable client hash), preserving per-client order. A sharded run
	// drives only its own clients; the canonical order restricted to a
	// client subset is the subset's own merge order, so shard streams
	// and shard queues see identical per-client sequences.
	var queues [][]int
	if tr != nil {
		queues = make([][]int, cfg.Workers)
		for i := warmN; i < n; i++ {
			id := tr.Requests[i].Client
			if !cfg.inShard(id) {
				continue
			}
			queues[workerOf(id, cfg.Workers)] = append(queues[workerOf(id, cfg.Workers)], i)
		}
	}

	results := make([]*workerResult, cfg.Workers)
	root := stats.NewRNG(cfg.Seed).Split("loadgen")
	start := time.Now()
	var restartInfo *RestartInfo
	switch {
	case rst != nil:
		ri, rres, err := r.runRestart(tr, warmN, n, rst, ckstore, swap, rebuild, freezeAt, root)
		if err != nil {
			return nil, nil, info, err
		}
		restartInfo = ri
		results = rres
	case cfg.OpenLoop && cfg.Rate > 0:
		if gen != nil {
			r.runOpenLoopStream(gen.Merged(), warmN, results)
		} else {
			r.runOpenLoop(tr, queues, results)
		}
	default:
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := root.Split(fmt.Sprintf("worker-%d", w))
				if gen != nil {
					w := w
					cursors := gen.CursorsWhere(func(id trace.ClientID) bool {
						return cfg.inShard(id) && workerOf(id, cfg.Workers) == w
					})
					results[w] = r.closedWorkerStream(trace.MergeCursors(cursors), skips[w], rng)
				} else {
					results[w] = r.closedWorker(tr, queues[w], rng)
				}
			}(w)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	res := r.aggregate(results, elapsed, warmupErrors)
	res.Restart = restartInfo
	if ckstore != nil {
		c := ckstore.Counters()
		res.Checkpoint = &c
	}
	if cfg.Overload && r.srv != nil {
		ov := r.srv.OverloadStats()
		res.Overload = &ov
	}
	if r.srv == nil {
		res.Overload, res.Checkpoint = scrapeServer(r.base)
	}
	if (cfg.MaxRows > 0 || cfg.RowTopK > 0) && r.srv != nil {
		res.Estimator = r.srv.Engine().Stats().Estimator
	}
	if guard != nil && r.srv != nil {
		gs := guard.StatsSnapshot()
		es := r.srv.Engine().Stats()
		res.Estguard = &EstguardInfo{
			QuarantinedClients:  gs.QuarantinedClients,
			QuarantinedRequests: gs.QuarantinedRequests,
			Promotions:          gs.Promotions,
			Demotions:           gs.Demotions,
			Refreshes:           es.Refreshes,
			EarlyRefreshes:      es.EarlyRefreshes,
			SnapshotsRejected:   es.SnapshotsRejected,
			ForcedAccepts:       gs.ForcedAccepts,
			DriftScore:          gs.DriftScore,
		}
	}
	if led != nil {
		// Drain the ledger: every speculative copy still sitting unused
		// in a session cache is waste. Client order is fixed for
		// reproducible logs, though the ledger commutes regardless.
		for _, id := range r.order {
			r.clients[id].c.ResolveOutstanding()
		}
		res.Attrib = led.Report(attribTopDocs)
	}
	if res.Timing != nil {
		// Peak-memory evidence for the streaming gate: live heap after a
		// forced collection, with the workload (trace or cursors) still
		// referenced. Wall-clock-adjacent, so it lives inside Timing.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Timing.Memory = &MemoryInfo{HeapAllocBytes: ms.HeapAlloc, SysBytes: ms.Sys}
	}
	if cfg.raw != nil {
		*cfg.raw = armRaw{
			Hist:           r.aggHist.Export(),
			MissDurNS:      int64(r.missDurSum),
			MissCount:      r.missCount,
			ElapsedNS:      int64(elapsed),
			OverloadFreeze: ovFreeze,
			Attrib:         led.Export(),
		}
	}
	return res, winfo, info, nil
}

// RunReport executes cfg as the report's speculative arm and, when
// withBaseline and cfg.Speculate, the identical workload once more with
// speculation off — the paper's baseline — then assembles the BENCH
// report with the arm-relative timing comparison.
func RunReport(cfg Config, withBaseline bool) (*Report, error) {
	specRes, winfo, cinfo, err := runBest(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Schema: ReportSchema, Config: cinfo, Workload: *winfo, Spec: specRes}
	if withBaseline && cfg.Speculate {
		b := cfg
		b.Speculate = false
		baseRes, _, _, err := runBest(b)
		if err != nil {
			return nil, err
		}
		rep.Baseline = baseRes
		if st, bt := specRes.Timing, baseRes.Timing; st != nil && bt != nil &&
			bt.Latency.P99 > 0 && bt.Throughput > 0 {
			rep.Relative = &Relative{
				P99Ratio:        st.Latency.P99 / bt.Latency.P99,
				ThroughputRatio: st.Throughput / bt.Throughput,
			}
		}
	}
	return rep, nil
}

// runBest executes one arm cfg.Reps times, keeping the first rep's
// result with the fastest rep's Timing substituted in. Counts are
// byte-identical across fault-free reps, so this sharpens only the
// wall-clock section.
func runBest(cfg Config) (*Result, *WorkloadInfo, ConfigInfo, error) {
	res, winfo, cinfo, err := Run(cfg)
	if err != nil {
		return nil, nil, cinfo, err
	}
	for i := 1; i < cfg.Reps; i++ {
		again, _, _, err := Run(cfg)
		if err != nil {
			return nil, nil, cinfo, err
		}
		if t := again.Timing; t != nil &&
			(res.Timing == nil || t.Throughput > res.Timing.Throughput) {
			res.Timing = t
		}
	}
	return res, winfo, cinfo, nil
}

// sessionGap applies the request-count session purge; callers own the
// client (dispatcher during warmup, the owning worker afterwards).
func (r *run) sessionGap(cl *Client) {
	if r.cfg.SessionGapRequests > 0 && cl.sinceSession >= r.cfg.SessionGapRequests {
		cl.c.EndSession()
		cl.sinceSession = 0
	}
	cl.sinceSession++
}

// workerOf assigns a client to a worker by stable hash, so the partition
// does not depend on trace position or map order.
func workerOf(id trace.ClientID, workers int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(workers))
}

// closedWorkerStream walks the worker's own merged client streams
// back-to-back, discarding the first skip requests (the warmup prefix,
// already replayed sequentially — regeneration is how the streamed drive
// avoids ever buffering it). The request sequence equals the
// materialized worker's queue by the canonical-order restriction
// property.
func (r *run) closedWorkerStream(s trace.Stream, skip int, rng *stats.RNG) *workerResult {
	res := &workerResult{hist: NewHist()}
	for i := 0; ; i++ {
		req, ok := s.Next()
		if !ok {
			break
		}
		if i < skip {
			continue
		}
		cl := r.clients[req.Client]
		r.sessionGap(cl)
		if d := r.think(rng); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		_, fromCache, err := cl.c.Get(req.Path)
		res.observe(time.Since(start), fromCache, err)
	}
	return res
}

// closedWorker walks its queue back-to-back with optional think time.
func (r *run) closedWorker(tr *trace.Trace, queue []int, rng *stats.RNG) *workerResult {
	res := &workerResult{hist: NewHist()}
	for _, idx := range queue {
		req := &tr.Requests[idx]
		cl := r.clients[req.Client]
		r.sessionGap(cl)
		if d := r.think(rng); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		_, fromCache, err := cl.c.Get(req.Path)
		res.observe(time.Since(start), fromCache, err)
	}
	return res
}

func (r *run) think(rng *stats.RNG) time.Duration {
	d := r.cfg.Think
	if j := r.cfg.ThinkJitter; j > 0 {
		d += time.Duration(rng.Float64() * float64(j))
	}
	return d
}

func (res *workerResult) observe(d time.Duration, fromCache bool, err error) {
	if err != nil {
		if !errors.Is(err, httpspec.ErrShed) {
			res.errors++
		}
		return
	}
	res.hist.Observe(d)
	if !fromCache {
		res.missDurSum += d
		res.missCount++
	}
}

// openItem is one paced arrival.
type openItem struct {
	idx int
	at  time.Time
}

// runOpenLoop paces arrivals at Rate/Burst and hands each to its owning
// worker; workers drain their channels sequentially, so per-client order
// holds while the dispatcher never waits for responses. Latency is
// charged from the scheduled arrival time.
func (r *run) runOpenLoop(tr *trace.Trace, queues [][]int, results []*workerResult) {
	cfg := r.cfg
	interval := time.Duration(float64(cfg.Burst) / cfg.Rate * float64(time.Second))
	chans := make([]chan openItem, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		chans[w] = make(chan openItem, len(queues[w])+1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &workerResult{hist: NewHist()}
			for it := range chans[w] {
				req := &tr.Requests[it.idx]
				cl := r.clients[req.Client]
				r.sessionGap(cl)
				_, fromCache, err := cl.c.Get(req.Path)
				res.observe(time.Since(it.at), fromCache, err)
			}
			results[w] = res
		}(w)
	}
	next := time.Now()
	dispatched := 0
	// Walk measurement requests in global order for pacing.
	total := 0
	for _, q := range queues {
		total += len(q)
	}
	cursor := make([]int, cfg.Workers)
	// Reconstruct global order by merging queue indexes (they are
	// already globally ordered within each queue; the overall global
	// order is by trace index).
	for dispatched < total {
		best, bestIdx := -1, -1
		for w := 0; w < cfg.Workers; w++ {
			if cursor[w] < len(queues[w]) {
				if idx := queues[w][cursor[w]]; bestIdx == -1 || idx < bestIdx {
					best, bestIdx = w, idx
				}
			}
		}
		if dispatched > 0 && dispatched%cfg.Burst == 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		chans[best] <- openItem{idx: bestIdx, at: next}
		cursor[best]++
		dispatched++
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// openReq is one paced arrival carried by value — the streamed open loop
// never holds more than the bounded channel buffers.
type openReq struct {
	req trace.Request
	at  time.Time
}

// openStreamBuffer bounds each worker's in-flight arrival queue in the
// streamed open loop. The dispatcher blocks when a worker falls this far
// behind; latency is still charged from the scheduled arrival time, so a
// stall surfaces as queueing delay, never as coordinated omission.
const openStreamBuffer = 1024

// runOpenLoopStream paces arrivals straight off the canonical merged
// stream: discard the warmup prefix (already replayed), then hand each
// in-shard request to its owning worker at Rate/Burst. Memory is
// O(workers · openStreamBuffer) instead of O(trace).
func (r *run) runOpenLoopStream(s trace.Stream, skip int, results []*workerResult) {
	cfg := r.cfg
	interval := time.Duration(float64(cfg.Burst) / cfg.Rate * float64(time.Second))
	chans := make([]chan openReq, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		chans[w] = make(chan openReq, openStreamBuffer)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &workerResult{hist: NewHist()}
			for it := range chans[w] {
				cl := r.clients[it.req.Client]
				r.sessionGap(cl)
				_, fromCache, err := cl.c.Get(it.req.Path)
				res.observe(time.Since(it.at), fromCache, err)
			}
			results[w] = res
		}(w)
	}
	next := time.Now()
	dispatched := 0
	for i := 0; ; i++ {
		req, ok := s.Next()
		if !ok {
			break
		}
		if i < skip || !r.cfg.inShard(req.Client) {
			continue
		}
		if dispatched > 0 && dispatched%cfg.Burst == 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		chans[workerOf(req.Client, cfg.Workers)] <- openReq{req: req, at: next}
		dispatched++
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// aggregate folds worker ledgers and client counters into the Result.
func (r *run) aggregate(results []*workerResult, elapsed time.Duration, warmupErrors int64) *Result {
	hist := NewHist()
	var errors, missCount int64
	var missDurSum time.Duration
	for _, wr := range results {
		if wr == nil {
			continue
		}
		hist.Merge(wr.hist)
		errors += wr.errors
		missDurSum += wr.missDurSum
		missCount += wr.missCount
	}
	r.aggHist, r.missDurSum, r.missCount = hist, missDurSum, missCount

	var c Counts
	c.Errors = errors
	for _, id := range r.order {
		cl := r.clients[id]
		cs, ws := cl.c.Stats(), cl.warmup
		c.Requests += cs.Fetches - ws.Fetches
		c.CacheHits += cs.CacheHits - ws.CacheHits
		c.SpecHits += cs.SpecHits - ws.SpecHits
		c.Pushed += cs.Pushed - ws.Pushed
		c.Prefetched += cs.Prefetched - ws.Prefetched
		c.Shed += cs.Shed - ws.Shed
		c.Retries += cs.Retries - ws.Retries
		c.StaleServes += cs.StaleServes - ws.StaleServes
		c.BytesIn += cs.BytesIn - ws.BytesIn
		c.DemandBytes += cs.DemandBytes - ws.DemandBytes
		c.MissBytes += cs.MissBytes - ws.MissBytes
		c.SpecHitBytes += cs.SpecHitBytes - ws.SpecHitBytes
	}
	c.WarmupErrors = warmupErrors
	return paperResult(c, hist, missDurSum, missCount, elapsed)
}

// paperResult assembles an arm's Result from its measurement-phase counts
// and wall-clock ledger: the paper's four ratios (§3, Figs. 5–6), each
// speculative service over the non-speculative baseline the same session
// caches would have seen. Bandwidth > 1 is the cost of speculation;
// server load, service time and byte miss rate < 1 are its benefits.
// Service time charges every speculation-manufactured hit the mean miss
// time it avoided, so it is wall-clock and lives in Timing. Every ratio
// is 1 when the run has nothing to compare. aggregate and mergeArms both
// build through here, so the formulas exist once.
func paperResult(c Counts, hist *Hist, missDur time.Duration, missCount int64, elapsed time.Duration) *Result {
	c.BaselineBytes = c.MissBytes + c.SpecHitBytes
	ratios := Ratios{
		Bandwidth:    ratio(float64(c.BytesIn), float64(c.BaselineBytes)),
		ServerLoad:   ratio(float64(c.Requests-c.CacheHits+c.Prefetched), float64(c.Requests-c.CacheHits+c.SpecHits)),
		ByteMissRate: ratio(float64(c.MissBytes), float64(c.BaselineBytes)),
	}

	timing := &Timing{
		DurationSeconds: elapsed.Seconds(),
		Latency:         quantiles(hist),
		Histogram:       hist.Buckets(),
		ServiceTime:     1,
	}
	if elapsed > 0 {
		timing.Throughput = float64(hist.Count()) / elapsed.Seconds()
	}
	if n := hist.Count(); n > 0 {
		var meanMiss time.Duration
		if missCount > 0 {
			meanMiss = missDur / time.Duration(missCount)
		}
		observed := float64(hist.sum)
		baseline := observed + float64(c.SpecHits)*float64(meanMiss)
		timing.ServiceTime = ratio(observed, baseline)
	}

	return &Result{Counts: c, Ratios: ratios, Timing: timing}
}

func ratio(spec, baseline float64) float64 {
	if baseline <= 0 {
		return 1
	}
	return spec / baseline
}

// ledgerCapacity sizes the attribution ledger past every document the run
// can touch, so the space-saving sketch never evicts and its updates
// commute. A supplied trace has no site: its distinct paths stand in,
// with slack for pushed documents the trace never demands.
func ledgerCapacity(site *webgraph.Site, tr *trace.Trace) int {
	if site != nil {
		return site.NumDocs()
	}
	distinct := make(map[string]struct{}, 1024)
	for i := range tr.Requests {
		distinct[tr.Requests[i].Path] = struct{}{}
	}
	return 2*len(distinct) + 64
}

// scrapeServer reads a live server's overload and checkpoint ledgers
// from one GET /spec/stats, outside the (possibly fault-injecting) run
// transport. Both are nil when the server runs without that control or
// cannot be reached.
func scrapeServer(base string) (*httpspec.ServerOverloadStats, *checkpoint.Counters) {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(base + "/spec/stats")
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var payload struct {
		Engine   core.Stats
		Overload *httpspec.ServerOverloadStats
	}
	if json.NewDecoder(resp.Body).Decode(&payload) != nil {
		return nil, nil
	}
	return payload.Overload, payload.Engine.Checkpoint
}
