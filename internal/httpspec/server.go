package httpspec

import (
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/core"
	"specweb/internal/estguard"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// Protocol header names. Spec-Client identifies the requesting client
// (falling back to the remote address), Spec-Accept announces bundle
// support, and Spec-Have carries the cooperative cache digest as
// space-separated URL paths.
const (
	HeaderClient = "Spec-Client"
	HeaderAccept = "Spec-Accept"
	HeaderHave   = "Spec-Have"
	// HeaderPushed marks a bundle part as speculative (absent on the
	// requested document itself).
	HeaderPushed = "Spec-Pushed"
	// HeaderStale marks a response served from a proxy's superseded
	// replica store while the origin was unreachable (degraded mode).
	HeaderStale = "X-Specweb-Stale"
	// HeaderPriority carries the client's demand priority ("low",
	// "normal" or "high"; absent means normal). Under the deepest
	// degradation rung, low-priority demand is shed first.
	HeaderPriority = "Spec-Priority"
	// HeaderShed marks a 503 as deliberate overload shedding (value is
	// the shed traffic class), so clients and replays can distinguish
	// load shedding from failure.
	HeaderShed = "X-Specweb-Shed"
	// HeaderSpecP carries, on a speculative bundle part, the engine
	// probability that drove the push, in thousandths — the attribution
	// ledger's fixed-point currency.
	HeaderSpecP = "Spec-P"
	// HeaderRung carries the governor's degradation rung name on
	// responses, so attribution can bucket deliveries by the overload
	// state they were decided under.
	HeaderRung = "Spec-Rung"
	// HeaderPrefetch marks a request as a hint-driven prefetch and
	// carries the hint probability in thousandths, letting the server's
	// ledger record the delivery.
	HeaderPrefetch = "Spec-Prefetch"
	// HeaderAttrib piggybacks attribution feedback on demand requests:
	// space-separated "c:<class>:<path>" (consumed) and
	// "w:<class>:<path>" (wasted) tokens resolving earlier speculative
	// deliveries in the server's ledger.
	HeaderAttrib = "Spec-Attrib"
	// HeaderQuarantine announces, on responses to clients the estimator
	// guard has quarantined, the classification reason. Quarantined
	// clients still get full demand service but no speculation: pushing
	// to a crawler is pure waste, and its transitions no longer train
	// P[i,j].
	HeaderQuarantine = "X-Specweb-Quarantine"

	acceptBundle = "bundle"
)

// Mode selects the server's delivery of speculative candidates, mirroring
// simulate.Mode for the live protocol.
type Mode int

const (
	// ModePush sends multipart bundles to clients that accept them.
	ModePush Mode = iota
	// ModeHints only attaches Link: rel="prefetch" headers.
	ModeHints
	// ModeHybrid pushes near-certain candidates and hints the rest.
	ModeHybrid
)

// ParseMode resolves a command-line mode name — the one switch shared by
// every binary that takes a -mode flag.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "push":
		return ModePush, nil
	case "hints":
		return ModeHints, nil
	case "hybrid":
		return ModeHybrid, nil
	}
	return 0, fmt.Errorf("httpspec: unknown mode %q (want push, hints, or hybrid)", name)
}

// ServerConfig parameterizes a speculative HTTP server.
type ServerConfig struct {
	Engine core.EngineConfig
	Mode   Mode
	// MaxPush bounds the number of documents pushed per response.
	MaxPush int
	// Clock supplies request times; nil means time.Now. Tests and
	// trace replays inject their own.
	Clock func() time.Time
	// Metrics selects the registry the server (and its engine and
	// replicator) register metrics in; nil means obs.Default.
	Metrics *obs.Registry
	// Tracer records per-request spans; nil means obs.DefaultTracer.
	Tracer *obs.Tracer
	// Admission gates document requests through the overload
	// controller's demand class; nil admits everything.
	Admission *overload.Controller
	// Governor adapts speculation to load (the degradation ladder); nil
	// leaves the engine's knobs static. NewServer binds it to the
	// engine with the configured Tp/TopK/MaxSize as the baseline.
	Governor *overload.Governor
	// Attrib, when non-nil, records every speculative delivery this
	// server makes (pushes, hinted prefetches it serves) and resolves
	// them from client Spec-Attrib feedback.
	Attrib *attrib.Ledger
}

// DefaultServerConfig returns a push-mode server with the baseline engine.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Engine:  core.DefaultEngineConfig(),
		Mode:    ModeHybrid,
		MaxPush: 16,
	}
}

// ServerStats counts the server's activity.
type ServerStats struct {
	Requests     int64
	BytesSent    int64
	DocsPushed   int64
	HintsSent    int64
	NotFound     int64
	BundlesBuilt int64
}

// Server is the speculative HTTP server: an http.Handler serving a Store.
type Server struct {
	store  Store
	cfg    ServerConfig
	engine *core.Engine
	repl   *core.Replicator
	met    *serverMetrics
	tracer *obs.Tracer

	requests   atomic.Int64
	bytesSent  atomic.Int64
	docsPushed atomic.Int64
	hintsSent  atomic.Int64
	notFound   atomic.Int64
	bundles    atomic.Int64

	// Degradation-ladder accounting: speculative work suppressed (docs
	// not pushed, requests served without any speculation) and demand
	// requests shed, per instance.
	pushSuppressed  atomic.Int64
	embedSuppressed atomic.Int64
	demandShed      atomic.Int64

	// Requests served without speculation because the estimator guard
	// quarantined the client.
	quarSuppressed atomic.Int64
}

// serverMetrics are the server's observability series; the snapshot-style
// ServerStats struct stays for the JSON /spec/stats endpoint.
type serverMetrics struct {
	requests    *obs.Counter
	notFound    *obs.Counter
	bytesSent   *obs.Counter
	pushedDocs  *obs.Counter
	pushedBytes *obs.Counter
	hints       *obs.Counter
	bundles     *obs.Counter
	digestDocs  *obs.Counter
	latency     *obs.Histogram
	respBytes   *obs.Histogram

	// specweb_overload_* ladder counters, one per shedding rung.
	pushSuppressed  *obs.Counter
	embedSuppressed *obs.Counter
	demandShed      *obs.Counter

	quarSuppressed *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests:    reg.Counter("specweb_server_requests_total", "Client-initiated document requests served.", nil),
		notFound:    reg.Counter("specweb_server_not_found_total", "Requests for unknown paths.", nil),
		bytesSent:   reg.Counter("specweb_server_bytes_sent_total", "Response bytes written (documents and bundle parts).", nil),
		pushedDocs:  reg.Counter("specweb_server_pushed_docs_total", "Documents pushed speculatively in bundles.", nil),
		pushedBytes: reg.Counter("specweb_server_pushed_bytes_total", "Bytes pushed speculatively in bundles.", nil),
		hints:       reg.Counter("specweb_server_hints_total", "Link rel=prefetch hints attached to responses.", nil),
		bundles:     reg.Counter("specweb_server_bundles_total", "Multipart bundles built.", nil),
		digestDocs:  reg.Counter("specweb_server_digest_docs_total", "Documents announced in cooperative Spec-Have digests.", nil),
		latency:     reg.Histogram("specweb_server_request_seconds", "Document request service time in seconds.", obs.LatencyBuckets(), nil),
		respBytes:   reg.Histogram("specweb_server_response_bytes", "Response size in bytes per document request.", obs.SizeBuckets(), nil),
		pushSuppressed: reg.Counter("specweb_overload_pushes_suppressed_total",
			"Documents not pushed because the degradation ladder was at no_push or higher.", nil),
		embedSuppressed: reg.Counter("specweb_overload_embeds_suppressed_total",
			"Requests served without any speculation because the ladder was at no_spec or higher.", nil),
		demandShed: reg.Counter("specweb_overload_demand_shed_total",
			"Demand requests shed with 503 + Retry-After (admission reject or shed_demand rung).", nil),
		quarSuppressed: reg.Counter("specweb_estguard_spec_suppressed_total",
			"Requests served without speculation because the client is quarantined.", nil),
	}
}

// NewServer builds a server over the store.
func NewServer(store Store, cfg ServerConfig) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("httpspec: nil store")
	}
	if cfg.MaxPush <= 0 {
		cfg.MaxPush = 16
	}
	if cfg.Engine.Metrics == nil {
		cfg.Engine.Metrics = cfg.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer
	}
	if cfg.Engine.Guard != nil && cfg.Engine.Feedback == nil && cfg.Attrib != nil {
		// Close the loop by default: snapshot validation calibrates
		// against the same ledger this server records deliveries in.
		led := cfg.Attrib
		cfg.Engine.Feedback = func() (int64, int64, int64) {
			t := led.TotalsSnapshot()
			return t.Deliveries, t.Consumed, t.Wasted
		}
	}
	eng, err := core.NewEngine(cfg.Engine, func(id webgraph.DocID) (int64, bool) {
		return store.Size(id)
	})
	if err != nil {
		return nil, err
	}
	// The governor throttles this engine's §3.4 knobs, restoring the
	// configured operating point when load drains.
	cfg.Governor.Bind(eng, overload.Baseline{
		Tp:      cfg.Engine.Tp,
		TopK:    cfg.Engine.TopK,
		MaxSize: cfg.Engine.MaxSize,
	})
	return &Server{
		store:  store,
		cfg:    cfg,
		engine: eng,
		repl:   core.NewReplicatorIn(cfg.Metrics),
		met:    newServerMetrics(cfg.Metrics),
		tracer: cfg.Tracer,
	}, nil
}

// Engine exposes the online engine (for tests and stats).
func (s *Server) Engine() *core.Engine { return s.engine }

// Replicator exposes the popularity tracker feeding dissemination.
func (s *Server) Replicator() *core.Replicator { return s.repl }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:     s.requests.Load(),
		BytesSent:    s.bytesSent.Load(),
		DocsPushed:   s.docsPushed.Load(),
		HintsSent:    s.hintsSent.Load(),
		NotFound:     s.notFound.Load(),
		BundlesBuilt: s.bundles.Load(),
	}
}

func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// ServeHTTP handles document requests plus two control endpoints:
// GET /spec/stats (JSON counters) and GET /spec/replicas?budget=N (the
// dissemination replica set recommendation).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/spec/stats":
		s.serveStats(w)
		return
	case r.URL.Path == "/spec/replicas":
		s.serveReplicas(w, r)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	start := s.now()
	// Continue the caller's trace when it sent one (client or proxy hop),
	// so one trace ID spans the whole request path.
	sp := s.tracer.StartRemote("server.request", r.Header.Get(obs.TraceparentHeader))
	sp.SetAttr("path", r.URL.Path)
	defer sp.Finish()

	// Admission first: a saturated server answers 503 + Retry-After
	// before doing any work for the request. The wait queue inside
	// Acquire is deadline-aware, so a request that cannot outlast the
	// backlog fails immediately rather than timing out silently.
	if s.cfg.Admission != nil {
		release, err := s.cfg.Admission.Acquire(r.Context(), overload.Demand)
		if err != nil {
			s.shedDemand(w, sp, s.cfg.Admission.RetryAfter(overload.Demand))
			return
		}
		defer release()
	}

	id, ok := s.store.Lookup(r.URL.Path)
	if !ok {
		s.notFound.Add(1)
		s.met.notFound.Inc()
		sp.SetAttr("status", "404")
		http.NotFound(w, r)
		return
	}

	// The degradation ladder's last rung: shed lowest-priority demand
	// before recording or serving anything — the cheapest possible exit.
	rung := s.cfg.Governor.Rung()
	rungName := overload.RungName(rung)
	sp.SetAttr("rung", rungName)
	if rung >= overload.RungShedDemand && priorityOf(r) == prioLow {
		s.shedDemand(w, sp, 1)
		return
	}
	if s.cfg.Governor != nil {
		w.Header().Set(HeaderRung, rungName)
	}

	// Resolve attribution feedback the client piggybacked before counting
	// this request's own speculation.
	s.ingestAttrib(r.Header.Get(HeaderAttrib))

	s.requests.Add(1)
	s.met.requests.Inc()

	client := clientID(r)
	at := s.now()
	s.engine.Record(client, id, at)
	size, _ := s.store.Size(id)
	s.repl.Record(id, size, isRemote(client))

	// Quarantined clients (crawlers, scanners, bots per the estimator
	// guard) are served normally but never speculated to: every pushed
	// byte to a one-pass crawler is guaranteed waste. The status only
	// changes at refresh time, so this decision is deterministic for a
	// given trace regardless of request interleaving.
	quarReason := ""
	if st, reason := s.engine.ClientStatus(client); st == estguard.Quarantined {
		quarReason = reason
		if quarReason == "" {
			quarReason = "quarantined"
		}
		w.Header().Set(HeaderQuarantine, quarReason)
	}

	var push []webgraph.DocID
	var pushP []float64
	var hints []hint
	switch {
	case quarReason != "":
		s.quarSuppressed.Add(1)
		s.met.quarSuppressed.Inc()
		sp.SetAttr("speculation", "quarantined")
	case rung >= overload.RungNoSpec:
		// Second rung: no speculation at all — skip the candidate
		// computation entirely and serve the plain demand response.
		s.embedSuppressed.Add(1)
		s.met.embedSuppressed.Inc()
		sp.SetAttr("speculation", "suppressed")
	default:
		have := parseHave(r.Header.Get(HeaderHave), s.store)
		s.met.digestDocs.Add(int64(len(have)))
		have[id] = true // never push the requested document

		// The engine's lock-free decision path: the pooled Decision's
		// buffers back push/hints until the response is written, then
		// recycle at request end.
		d := core.AcquireDecision()
		defer core.ReleaseDecision(d)
		spec := s.tracer.StartChild("server.speculate", sp)
		switch s.cfg.Mode {
		case ModePush:
			s.engine.SpeculateInto(d, id, have)
			push, pushP = d.Push, d.PushP
		case ModeHints:
			s.engine.HintsInto(d, id, have)
			for _, h := range d.Hints {
				hints = append(hints, hint{doc: h.Doc, p: h.P})
			}
		case ModeHybrid:
			s.engine.SplitInto(d, id, have)
			push, pushP = d.Push, d.PushP
			for _, h := range d.Hints {
				hints = append(hints, hint{doc: h.Doc, p: h.P})
			}
		}
		if len(push) > s.cfg.MaxPush {
			push = push[:s.cfg.MaxPush]
			pushP = pushP[:s.cfg.MaxPush]
		}
		if rung >= overload.RungNoPush && len(push) > 0 {
			// First rung: stop pushing — the bytes are the expensive
			// part. The already-computed candidates demote to hints, so
			// clients keep some speculative benefit at header cost.
			s.pushSuppressed.Add(int64(len(push)))
			s.met.pushSuppressed.Add(int64(len(push)))
			for i, d := range push {
				hints = append(hints, hint{doc: d, p: pushP[i]})
			}
			push, pushP = nil, nil
		}
		spec.SetAttr("push", strconv.Itoa(len(push)))
		spec.SetAttr("hints", strconv.Itoa(len(hints)))
		spec.Finish()
	}

	for _, h := range hints {
		if path, ok := s.store.Path(h.doc); ok {
			w.Header().Add("Link", fmt.Sprintf("<%s>; rel=\"prefetch\"; spec-p=%.3f", path, h.p))
			s.hintsSent.Add(1)
			s.met.hints.Inc()
		}
	}

	wantBundle := strings.Contains(r.Header.Get(HeaderAccept), acceptBundle)
	var written int64
	if wantBundle && len(push) > 0 {
		bsp := s.tracer.StartChild("server.bundle", sp)
		written = s.serveBundle(w, id, push, pushP, rungName)
		bsp.Finish()
		sp.SetAttr("kind", "bundle")
	} else {
		written = s.serveDoc(w, id)
		sp.SetAttr("kind", "doc")
		// A hint-driven prefetch announces itself (with the hint's
		// probability); the bytes it pulls are a speculative delivery.
		if pm := r.Header.Get(HeaderPrefetch); pm != "" && s.cfg.Attrib != nil {
			// Clamped parse: a forged or malformed probability must not
			// poison the ledger's confidence sums.
			pMilli, _ := parsePMilli(pm)
			s.cfg.Attrib.Delivered(r.URL.Path, attrib.ClassPrefetch, written, pMilli, rungName)
		}
	}
	s.met.respBytes.Observe(float64(written))
	elapsed := s.now().Sub(start)
	// The trace-ID exemplar ties the latency bucket to a concrete request
	// inspectable at /debug/spans?trace=….
	s.met.latency.ObserveTrace(elapsed.Seconds(), sp.TraceID())
	// Feed the governor the full demand-path latency (including any
	// admission queueing): its control loop is what brings the ladder
	// back down when this number recovers.
	s.cfg.Governor.Observe(elapsed)
}

type hint struct {
	doc webgraph.DocID
	p   float64
}

// Demand priorities carried by HeaderPriority.
const (
	prioLow = iota - 1
	prioNormal
	prioHigh
)

// priorityOf parses the request's demand priority; unknown values are
// normal.
func priorityOf(r *http.Request) int {
	switch strings.ToLower(r.Header.Get(HeaderPriority)) {
	case "low":
		return prioLow
	case "high":
		return prioHigh
	}
	return prioNormal
}

// shedDemand answers a demand request with the overload-control 503:
// Retry-After so well-behaved clients back off, HeaderShed so replays
// can separate deliberate shedding from failure.
func (s *Server) shedDemand(w http.ResponseWriter, sp *obs.ActiveSpan, retryAfter int) {
	s.demandShed.Add(1)
	s.met.demandShed.Inc()
	sp.SetAttr("status", "503")
	sp.SetAttr("shed", "demand")
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	w.Header().Set(HeaderShed, overload.Demand.String())
	http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
}

// ServerOverloadStats reports the server's overload-control state: the
// ladder counters, the governor, and the admission controller. Zero
// values throughout when overload control is not configured.
type ServerOverloadStats struct {
	PushesSuppressed int64                  `json:"pushes_suppressed"`
	EmbedsSuppressed int64                  `json:"embeds_suppressed"`
	DemandShed       int64                  `json:"demand_shed"`
	Governor         overload.GovernorStats `json:"governor"`
	Admission        *overload.Stats        `json:"admission,omitempty"`
}

// SpeculativeShed is the total speculative work units the ladder shed:
// suppressed pushed documents, despeculated requests, and speculative
// admission rejections.
func (o ServerOverloadStats) SpeculativeShed() int64 {
	n := o.PushesSuppressed + o.EmbedsSuppressed
	if o.Admission != nil {
		n += o.Admission.Speculative.Rejected
	}
	return n
}

// OverloadStats snapshots the server's overload control.
func (s *Server) OverloadStats() ServerOverloadStats {
	st := ServerOverloadStats{
		PushesSuppressed: s.pushSuppressed.Load(),
		EmbedsSuppressed: s.embedSuppressed.Load(),
		DemandShed:       s.demandShed.Load(),
		Governor:         s.cfg.Governor.Stats(),
	}
	if s.cfg.Admission != nil {
		adm := s.cfg.Admission.Stats()
		st.Admission = &adm
	}
	return st
}

// overloadEnabled reports whether any overload control is configured.
func (s *Server) overloadEnabled() bool {
	return s.cfg.Admission != nil || s.cfg.Governor != nil
}

func (s *Server) serveDoc(w http.ResponseWriter, id webgraph.DocID) int64 {
	body, ok := s.store.Content(id)
	if !ok {
		http.Error(w, "document vanished", http.StatusInternalServerError)
		return 0
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	n, _ := w.Write(body)
	s.bytesSent.Add(int64(n))
	s.met.bytesSent.Add(int64(n))
	return int64(n)
}

// serveBundle writes a multipart/mixed response: the requested document
// first, then each speculative document, every part carrying its
// Content-Location (and, when pushed, the Spec-P probability that drove
// the push). Returns the body bytes written.
func (s *Server) serveBundle(w http.ResponseWriter, id webgraph.DocID, push []webgraph.DocID, pushP []float64, rung string) int64 {
	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	s.bundles.Add(1)
	s.met.bundles.Inc()

	var total int64
	writePart := func(doc webgraph.DocID, pushed bool, pMilli int64) {
		path, ok := s.store.Path(doc)
		if !ok {
			return
		}
		body, ok := s.store.Content(doc)
		if !ok {
			return
		}
		hdr := textproto.MIMEHeader{}
		hdr.Set("Content-Location", path)
		hdr.Set("Content-Type", "application/octet-stream")
		if pushed {
			hdr.Set(HeaderPushed, "1")
			hdr.Set(HeaderSpecP, strconv.FormatInt(pMilli, 10))
		}
		pw, err := mw.CreatePart(hdr)
		if err != nil {
			return
		}
		n, _ := pw.Write(body)
		total += int64(n)
		s.bytesSent.Add(int64(n))
		s.met.bytesSent.Add(int64(n))
		if pushed {
			s.docsPushed.Add(1)
			s.met.pushedDocs.Inc()
			s.met.pushedBytes.Add(int64(n))
			s.cfg.Attrib.Delivered(path, attrib.ClassPush, int64(n), pMilli, rung)
		}
	}
	writePart(id, false, 0)
	for i, d := range push {
		var pMilli int64
		if i < len(pushP) {
			pMilli = attrib.PMilli(pushP[i])
		}
		writePart(d, true, pMilli)
	}
	_ = mw.Close()
	return total
}

// ingestAttrib resolves client Spec-Attrib feedback tokens
// ("c:<class>:<path>" consumed, "w:<class>:<path>" wasted) against the
// server's ledger, using the store's current size for the byte amount.
// Tokens are validated (known kind, known class, plausible path) and
// capped, so a hostile header cannot poison the ledger's class map or
// grind the store with lookups.
func (s *Server) ingestAttrib(header string) {
	if header == "" || s.cfg.Attrib == nil {
		return
	}
	toks := strings.Fields(header)
	if len(toks) > maxAttribTokens {
		toks = toks[:maxAttribTokens]
	}
	for _, tok := range toks {
		consumed, class, path, ok := parseAttribToken(tok)
		if !ok {
			continue
		}
		id, ok := s.store.Lookup(path)
		if !ok {
			continue
		}
		size, _ := s.store.Size(id)
		if consumed {
			s.cfg.Attrib.Consumed(path, class, size)
		} else {
			s.cfg.Attrib.Wasted(path, class, size)
		}
	}
}

func (s *Server) serveStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	st := struct {
		Server   ServerStats
		Engine   core.Stats
		Overload *ServerOverloadStats `json:",omitempty"`
		Attrib   *attrib.Report       `json:",omitempty"`
		Estguard *estguard.Stats      `json:",omitempty"`
	}{Server: s.Stats(), Engine: s.engine.Stats()}
	if s.overloadEnabled() {
		ov := s.OverloadStats()
		st.Overload = &ov
	}
	st.Attrib = s.cfg.Attrib.Report(20)
	if g := s.engine.Guard(); g != nil {
		gs := g.StatsSnapshot()
		gs.SpecSuppressed = s.quarSuppressed.Load()
		st.Estguard = &gs
	}
	_ = json.NewEncoder(w).Encode(st)
}

// serveReplicas reports the paths a dissemination proxy should replicate
// within the given byte budget, ranked by remote popularity.
func (s *Server) serveReplicas(w http.ResponseWriter, r *http.Request) {
	budget, err := strconv.ParseInt(r.URL.Query().Get("budget"), 10, 64)
	if err != nil || budget <= 0 {
		http.Error(w, "budget must be a positive integer", http.StatusBadRequest)
		return
	}
	var paths []string
	for _, id := range s.repl.ReplicaSet(budget) {
		if p, ok := s.store.Path(id); ok {
			paths = append(paths, p)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(paths)
}

func clientID(r *http.Request) trace.ClientID {
	if c := r.Header.Get(HeaderClient); c != "" {
		return trace.ClientID(c)
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i > 0 {
		host = host[:i]
	}
	return trace.ClientID(host)
}

// isRemote classifies a client as outside the organization, by the same
// naming convention the trace generator uses.
func isRemote(c trace.ClientID) bool {
	return !strings.HasSuffix(string(c), ".local")
}

func parseHave(header string, store Store) map[webgraph.DocID]bool {
	have := make(map[webgraph.DocID]bool)
	for _, p := range strings.Fields(header) {
		if id, ok := store.Lookup(p); ok {
			have[id] = true
		}
	}
	return have
}
