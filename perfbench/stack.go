package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/estguard"
	"specweb/internal/httpspec"
	"specweb/internal/loadgen"
	"specweb/internal/netsim"
	"specweb/internal/obs"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// Fixed driver settings, equal to loadgen's defaults so the deterministic
// counts can be compared with loadgen.RunReport.
const (
	warmupFraction     = 0.3
	sessionGapRequests = 50
	maxPush            = 16
	baseURL            = "http://perfbench.invalid"
)

// buildWorkload generates the workload's site and topology from its fixed
// site seed and the request trace from seed, with the same generators and
// seed labels experiments.Build uses: at seed == w.cfg.Seed the result is
// identical to experiments.Build(w.cfg). Holding the site fixed keeps the
// seed-to-seed spread of the metrics down to the traffic's own variation.
func buildWorkload(w *workload, seed int64) (*webgraph.Site, *trace.Trace, error) {
	site, err := webgraph.Generate(w.cfg.Profile, stats.NewRNG(w.cfg.Seed).Split("site"))
	if err != nil {
		return nil, nil, fmt.Errorf("generating site: %w", err)
	}
	topo, err := netsim.Generate(w.cfg.Net, stats.NewRNG(w.cfg.Seed).Split("net"))
	if err != nil {
		return nil, nil, fmt.Errorf("generating topology: %w", err)
	}
	scfg := synth.DefaultConfig(site, topo)
	scfg.Days = w.cfg.Days
	scfg.SessionsPerDay = w.cfg.SessionsPerDay
	scfg.Scenario = synth.DefaultScenario(synth.ScenarioNone)
	res, err := synth.Generate(scfg, stats.NewRNG(seed).Split("trace"))
	if err != nil {
		return nil, nil, fmt.Errorf("generating trace: %w", err)
	}
	if res.Trace.Len() == 0 {
		return nil, nil, fmt.Errorf("empty trace")
	}
	return site, res.Trace, nil
}

// simClient is one simulated trace client and its session bookkeeping.
type simClient struct {
	c            *httpspec.Client
	sinceSession int
	warm         httpspec.ClientStats
}

// stack is one arm's in-process speculative HTTP stack.
type stack struct {
	w     *workload
	spec  bool
	srv   *httpspec.Server
	led   *attrib.Ledger
	ck    *checkpoint.Store
	spans *spanSet // nil in untraced runs

	// vnow is the server's virtual clock in Unix nanoseconds.
	vnow    atomic.Int64
	clients map[trace.ClientID]*simClient
	order   []trace.ClientID
}

// newStack assembles store → server → transport → one client per trace
// client. With spans non-nil, a timing wrapper sits at each seam. ckDir
// holds the live workload's checkpoint store.
func newStack(w *workload, seed int64, spec bool, site *webgraph.Site, tr *trace.Trace, spans *spanSet, ckDir string) (*stack, error) {
	s := &stack{w: w, spec: spec, spans: spans, clients: make(map[trace.ClientID]*simClient)}
	s.vnow.Store(tr.Requests[0].Time.UnixNano())
	clock := func() time.Time { return time.Unix(0, s.vnow.Load()) }

	store := httpspec.NewSiteStore(site)
	store.SetClock(clock)
	scfg := httpspec.DefaultServerConfig()
	scfg.Mode = httpspec.ModePush
	if spec {
		scfg.Mode = w.mode
		s.led = attrib.NewLedger(site.NumDocs(), obs.NewRegistry())
	}
	scfg.MaxPush = maxPush
	scfg.Metrics = obs.NewRegistry()
	scfg.Tracer = obs.NewTracer(64)
	scfg.Clock = clock
	if w.live {
		scfg.Engine.MaxRows = liveMaxRows
		scfg.Engine.Guard = estguard.New(estguard.Config{Seed: seed, Metrics: scfg.Metrics})
		if led := s.led; led != nil {
			scfg.Engine.Feedback = func() (int64, int64, int64) {
				t := led.TotalsSnapshot()
				return t.Deliveries, t.Consumed, t.Wasted
			}
		}
		fp := checkpoint.Combine(scfg.Engine.StateFingerprint(),
			checkpoint.Fingerprint(fmt.Sprintf("perfbench|%s|seed=%d", w.name, seed)))
		ck, err := checkpoint.NewStore(checkpoint.StoreConfig{Dir: ckDir, Fingerprint: fp, Metrics: obs.NewRegistry()})
		if err != nil {
			return nil, err
		}
		s.ck = ck
		scfg.Engine.Checkpoint = ck
	}

	var st httpspec.Store = store
	if spans != nil {
		st = tracedStore{Store: store, spans: spans}
	}
	srv, err := httpspec.NewServer(st, scfg)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	var h http.Handler = srv
	if spans != nil {
		h = tracedHandler{h: srv}
	}
	rt := loadgen.NewHandlerTransport(h)
	if spans != nil {
		rt = tracedTransport{rt: rt}
	}
	hc := &http.Client{Transport: rt}

	prefetch := 0.0
	if spec {
		prefetch = w.prefetch
	}
	s.order = tr.Clients()
	for _, id := range s.order {
		s.clients[id] = &simClient{c: httpspec.NewClient(baseURL, httpspec.ClientConfig{
			ID:                string(id),
			AcceptBundles:     spec,
			PrefetchThreshold: prefetch,
			HTTP:              hc,
			Attrib:            s.led,
		})}
	}
	return s, nil
}

// sessionGap applies loadgen's request-count session purge. Only the
// client's owning driver calls it.
func (s *stack) sessionGap(cl *simClient) {
	if cl.sinceSession >= sessionGapRequests {
		cl.c.EndSession()
		cl.sinceSession = 0
	}
	cl.sinceSession++
}

// setupTimes is the wall time of each set-up stage of one arm.
type setupTimes struct {
	build, warmup, freeze time.Duration
}

func (t setupTimes) total() time.Duration { return t.build + t.warmup + t.freeze }

// warmup replays the leading trace share sequentially on trace time,
// then freezes the engine at the boundary as loadgen.Run does. It
// returns the warm-up errors and the freeze time.
func (s *stack) warmup(reqs []trace.Request) (errs int64, freeze time.Duration) {
	for i := range reqs {
		req := &reqs[i]
		s.vnow.Store(req.Time.UnixNano())
		cl := s.clients[req.Client]
		s.sessionGap(cl)
		if _, _, err := cl.c.Get(req.Path); err != nil {
			errs++
		}
	}
	at := reqs[len(reqs)-1].Time
	s.vnow.Store(at.UnixNano())
	t0 := time.Now()
	s.srv.Engine().Refresh(at)
	freeze = time.Since(t0)
	for _, id := range s.order {
		cl := s.clients[id]
		cl.warm = cl.c.Stats()
	}
	return errs, freeze
}

// expect holds what every response body must look like: the size and
// header line of each document, and in full mode the whole body.
type expect struct {
	site *webgraph.Site
	size []int
	head [][]byte
	full [][]byte // nil unless the whole body is compared
}

// newExpect renders every document from a reference store that shares
// nothing with the served one.
func newExpect(site *webgraph.Site, full bool) *expect {
	ref := httpspec.NewSiteStoreCached(site, 0)
	e := &expect{site: site, size: make([]int, site.NumDocs()), head: make([][]byte, site.NumDocs())}
	if full {
		e.full = make([][]byte, site.NumDocs())
	}
	for i := range e.size {
		body, _ := ref.Content(webgraph.DocID(i))
		e.size[i] = len(body)
		if n := bytes.IndexByte(body, '\n'); n >= 0 {
			e.head[i] = append([]byte(nil), body[:n+1]...)
		}
		if full {
			e.full[i] = body
		}
	}
	return e
}

// check compares a Get body with the document at path.
func (e *expect) check(path string, body []byte) error {
	d := e.site.ByPath(path)
	if d == nil {
		return fmt.Errorf("GET %s: unknown path", path)
	}
	id := int(d.ID)
	if e.full != nil {
		if !bytes.Equal(body, e.full[id]) {
			return fmt.Errorf("GET %s: body differs from SiteStore.Content (%d bytes, want %d)", path, len(body), len(e.full[id]))
		}
		return nil
	}
	if len(body) != e.size[id] || !bytes.HasPrefix(body, e.head[id]) {
		return fmt.Errorf("GET %s: body size or header line differs from SiteStore.Content", path)
	}
	return nil
}

// driverResult is one driver's measurement ledger.
type driverResult struct {
	attempted, errors, shed int64
	missNs                  []int64 // latency of demand requests answered over the transport
	sumNs                   int64   // latency sum of every successful demand request
	serviceNs               int64   // time inside Get, excluding open-loop queueing
	lateNs, waitNs          []int64 // open loop: pacer lateness and queue wait
	stallNs                 int64   // traced: Get calls during which the engine refreshed
	problems                []string
}

const maxProblems = 5

func (r *driverResult) problem(err error) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, err.Error())
	}
}

// get issues one demand request and records its outcome; due is when the
// request was due (closed loop: when it was sent).
func (s *stack) get(tr *tracer, exp *expect, res *driverResult, req *trace.Request, due, start time.Time) time.Time {
	cl := s.clients[req.Client]
	s.sessionGap(cl)
	res.attempted++
	var (
		body      []byte
		fromCache bool
		err       error
		end       time.Time
	)
	if tr == nil {
		body, fromCache, err = cl.c.Get(req.Path)
		end = time.Now()
	} else {
		refreshes := s.srv.Engine().Stats().Refreshes
		ctx, id := tr.next()
		i := tr.begin(layerClient, id)
		body, fromCache, err = cl.c.GetCtx(ctx, req.Path)
		tr.end(i, int64(len(body)), fromCache)
		end = time.Now()
		if s.srv.Engine().Stats().Refreshes != refreshes {
			res.stallNs += int64(end.Sub(start))
		}
	}
	res.serviceNs += int64(end.Sub(start))
	if err != nil {
		if errors.Is(err, httpspec.ErrShed) {
			res.shed++
		} else {
			res.errors++
		}
		return end
	}
	lat := int64(end.Sub(due))
	res.sumNs += lat
	if !fromCache {
		res.missNs = append(res.missNs, lat)
	}
	if err := exp.check(req.Path, body); err != nil {
		res.problem(err)
	}
	return end
}

// workerOf assigns a client to a driver by the stable FNV hash loadgen
// uses, so each client's requests stay in trace order on one driver.
func workerOf(id trace.ClientID, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// closedLoop drives the measured requests from w.drivers goroutines, each
// walking its own clients' requests back to back.
func (s *stack) closedLoop(reqs []trace.Request, exp *expect) []*driverResult {
	n := s.w.drivers
	queues := make([][]*trace.Request, n)
	for i := range reqs {
		d := workerOf(reqs[i].Client, n)
		queues[d] = append(queues[d], &reqs[i])
	}
	results := make([]*driverResult, n)
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			res := &driverResult{missNs: make([]int64, 0, len(queues[d]))}
			tr, done := s.spans.driver()
			defer done()
			for _, req := range queues[d] {
				start := time.Now()
				s.get(tr, exp, res, req, start, start)
			}
			results[d] = res
		}(d)
	}
	wg.Wait()
	return results
}

// openLoop serves the measured requests from one goroutine in trace order
// against an absolute schedule of liveRate requests per second. The server
// clock follows each request's trace time, so the engine refreshes inline
// once a trace day. The goroutine spins for the next due time
// instead of sleeping per request; lateness is the delay between when a
// request could have started (due, or the previous request's end) and
// when it did, and queue wait is the time it waited for that previous
// request.
func (s *stack) openLoop(reqs []trace.Request, exp *expect) []*driverResult {
	res := &driverResult{
		missNs: make([]int64, 0, len(reqs)),
		lateNs: make([]int64, 0, len(reqs)),
		waitNs: make([]int64, 0, len(reqs)),
	}
	tr, done := s.spans.driver()
	defer done()
	interval := float64(time.Second) / liveRate
	base := time.Now().Add(time.Millisecond)
	prevEnd := base
	for i := range reqs {
		due := base.Add(time.Duration(float64(i) * interval))
		now := time.Now()
		if wait := due.Sub(now); wait > 2*time.Millisecond {
			time.Sleep(wait - time.Millisecond)
		}
		for now.Before(due) {
			now = time.Now()
		}
		ready := due
		if prevEnd.After(due) {
			ready = prevEnd
		}
		res.lateNs = append(res.lateNs, int64(now.Sub(ready)))
		res.waitNs = append(res.waitNs, int64(ready.Sub(due)))
		s.vnow.Store(reqs[i].Time.UnixNano())
		prevEnd = s.get(tr, exp, res, &reqs[i], due, now)
	}
	return []*driverResult{res}
}

// runtimeSample reads the Go runtime counters a measurement is charged.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return runtimeSample{
		allocBytes: ss[0].Value.Uint64(),
		gcCycles:   ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		totalCPU:   ss[3].Value.Float64(),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ckDir makes a fresh checkpoint directory under out for one arm.
func ckDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "ckpt-")
}
