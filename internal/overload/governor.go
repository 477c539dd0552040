package overload

import (
	"sync"
	"time"

	"specweb/internal/obs"
)

// Degradation rungs, in shedding order. Speculative work — the load the
// system created for itself — is always shed before any demand request:
// the paper's Fig. 5 server-load ratio only stays below 1 if the
// speculative surplus is the first thing to go when capacity runs out.
const (
	// RungNormal: full speculation at the configured knobs.
	RungNormal = iota
	// RungNoPush: stop pushing documents (bundle embeds become hints);
	// the engine's effective T_p is raised and MaxSize/TopK shrunk.
	RungNoPush
	// RungNoSpec: stop speculation entirely — plain demand responses,
	// no bundles, no hints, no candidate computation.
	RungNoSpec
	// RungShedDemand: additionally shed lowest-priority demand with
	// 503 + Retry-After. The last resort.
	RungShedDemand

	maxRung = RungShedDemand
)

// RungName names a ladder rung for logs and stats.
func RungName(r int) string {
	switch r {
	case RungNormal:
		return "normal"
	case RungNoPush:
		return "no_push"
	case RungNoSpec:
		return "no_spec"
	case RungShedDemand:
		return "shed_demand"
	}
	return "unknown"
}

// ParseRung maps a rung name (as emitted by RungName, e.g. in the
// Spec-Rung header) back to its ladder index. ok is false for anything
// that is not a known rung — callers use this to reject
// attacker-controlled rung strings before they become label values.
func ParseRung(name string) (int, bool) {
	for r := RungNormal; r <= maxRung; r++ {
		if RungName(r) == name {
			return r, true
		}
	}
	return 0, false
}

// EngineControls is the slice of core.Engine the governor drives: the
// §3.4 fine-tuning knobs made safely mutable at runtime.
type EngineControls interface {
	SetTp(tp float64) error
	SetLimits(maxSize int64, topK int) error
}

// Baseline is the engine's configured operating point, restored when
// load drains back to RungNormal.
type Baseline struct {
	Tp      float64
	TopK    int   // 0 = thresholding (no top-K cap)
	MaxSize int64 // 0 = unbounded
}

// GovernorConfig parameterizes the feedback controller.
type GovernorConfig struct {
	// Target is the demand-path latency the governor defends (default
	// 50ms). The load signal is EWMA(latency)/Target.
	Target time.Duration
	// Alpha weights new latency samples into the EWMA (default 0.2).
	Alpha float64
	// HighWater and LowWater bound the hysteresis band: load above
	// HighWater climbs a rung, below LowWater descends one (defaults
	// 1.0 and 0.5).
	HighWater float64
	LowWater  float64
	// Hold is the minimum time between rung moves (default 2s), so one
	// latency spike cannot slam the ladder up and down.
	Hold time.Duration
	// Pressure optionally supplies an admission-side load signal (e.g.
	// Controller.Pressure); the governor acts on max(latency load,
	// pressure). nil means latency only.
	Pressure func() float64
	// Clock supplies time; nil means time.Now. Tests step their own.
	Clock func() time.Time
	// Metrics selects the registry; nil means obs.Default.
	Metrics *obs.Registry
}

// GovernorStats snapshots the governor for /spec/stats and the replay
// overload summary.
type GovernorStats struct {
	Rung        int     `json:"rung"`
	MaxRungSeen int     `json:"max_rung_seen"`
	EffectiveTp float64 `json:"effective_tp"`
	LatencyEWMA float64 `json:"latency_ewma_seconds"`
	Moves       int64   `json:"moves"`
}

// Governor is the adaptive speculation throttle: it watches demand-path
// latency (and optionally admission pressure) and climbs or descends the
// degradation ladder, turning the engine's T_p/TopK/MaxSize knobs on the
// way. A nil *Governor is a valid no-op (always RungNormal).
type Governor struct {
	cfg GovernorConfig

	mu          sync.Mutex
	eng         EngineControls // nil until Bind
	base        Baseline
	ewma        float64 // seconds
	haveSample  bool
	rung        int
	maxRungSeen int
	lastMove    time.Time
	moves       int64
	effTp       float64

	rungG  *obs.Gauge
	loadG  *obs.Gauge
	effTpG *obs.Gauge
	movesC *obs.Counter
	// transC caches the per-transition counters, indexed [from][to];
	// ladder moves are ±1 so only adjacent cells ever populate.
	transC [maxRung + 1][maxRung + 1]*obs.Counter
}

// NewGovernor builds a governor at RungNormal.
func NewGovernor(cfg GovernorConfig) *Governor {
	if cfg.Target <= 0 {
		cfg.Target = 50 * time.Millisecond
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.2
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 1.0
	}
	if cfg.LowWater <= 0 || cfg.LowWater >= cfg.HighWater {
		cfg.LowWater = cfg.HighWater / 2
	}
	if cfg.Hold <= 0 {
		cfg.Hold = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Governor{
		cfg:      cfg,
		lastMove: cfg.Clock(),
		rungG: cfg.Metrics.Gauge("specweb_overload_rung",
			"Current degradation-ladder rung (0 normal … 3 shed demand).", nil),
		loadG: cfg.Metrics.Gauge("specweb_overload_load",
			"Governor load signal: max(latency EWMA / target, admission pressure).", nil),
		effTpG: cfg.Metrics.Gauge("specweb_overload_effective_tp",
			"Speculation threshold currently applied by the governor.", nil),
		movesC: cfg.Metrics.Counter("specweb_overload_rung_moves_total",
			"Degradation-ladder rung transitions.", nil),
	}
}

// Bind attaches the engine whose knobs the governor turns and records
// the baseline to restore at RungNormal. Calling Bind on a nil governor
// or with a nil engine is a no-op.
func (g *Governor) Bind(e EngineControls, base Baseline) {
	if g == nil || e == nil {
		return
	}
	g.mu.Lock()
	g.eng = e
	g.base = base
	g.effTp = base.Tp
	g.mu.Unlock()
	g.effTpG.Set(base.Tp)
}

// Rung reports the current ladder rung. Nil-safe: a nil governor is
// always RungNormal.
func (g *Governor) Rung() int {
	if g == nil {
		return RungNormal
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rung
}

// Observe feeds one completed demand request's latency into the control
// loop and re-evaluates the ladder. Nil-safe no-op.
func (g *Governor) Observe(latency time.Duration) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s := latency.Seconds()
	if s < 0 {
		s = 0
	}
	if !g.haveSample {
		g.ewma = s
		g.haveSample = true
	} else {
		g.ewma += g.cfg.Alpha * (s - g.ewma)
	}
	g.evaluateLocked()
}

// Tick re-evaluates the ladder without a new sample — callers with idle
// periods (no demand traffic) can run it on a timer so a high rung
// drains even when no requests arrive to Observe. Nil-safe no-op.
func (g *Governor) Tick() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// With no demand flowing the latency signal decays toward zero:
	// nothing is queueing, so the ladder should come down.
	g.ewma *= 1 - g.cfg.Alpha
	g.evaluateLocked()
}

// evaluateLocked applies the control law: load = max(latency EWMA /
// target, admission pressure); climb on load ≥ HighWater, descend on
// load ≤ LowWater, at most one rung per Hold.
// Callers hold g.mu.
func (g *Governor) evaluateLocked() {
	load := g.ewma / g.cfg.Target.Seconds()
	if g.cfg.Pressure != nil {
		if p := g.cfg.Pressure(); p > load {
			load = p
		}
	}
	g.loadG.Set(load)
	now := g.cfg.Clock()
	if now.Sub(g.lastMove) < g.cfg.Hold {
		return
	}
	switch {
	case load >= g.cfg.HighWater && g.rung < maxRung:
		g.moveLocked(g.rung+1, now)
	case load <= g.cfg.LowWater && g.rung > RungNormal:
		g.moveLocked(g.rung-1, now)
	}
}

// moveLocked transitions to rung r and applies the engine knobs for it.
// Callers hold g.mu.
func (g *Governor) moveLocked(r int, now time.Time) {
	from := g.rung
	g.rung = r
	if r > g.maxRungSeen {
		g.maxRungSeen = r
	}
	g.lastMove = now
	g.moves++
	g.rungG.Set(float64(r))
	g.movesC.Inc()
	g.transitionCounterLocked(from, r).Inc()
	g.applyKnobsLocked()
}

// transitionCounterLocked returns (creating on first use) the labeled
// counter for one ladder edge, so dashboards can see which direction the
// governor is moving, not just how often. Callers hold g.mu.
func (g *Governor) transitionCounterLocked(from, to int) *obs.Counter {
	if c := g.transC[from][to]; c != nil {
		return c
	}
	c := g.cfg.Metrics.Counter("specweb_overload_transitions_total",
		"Degradation-ladder rung transitions by edge.",
		obs.Labels{"from": RungName(from), "to": RungName(to)})
	g.transC[from][to] = c
	return c
}

// applyKnobsLocked turns the §3.4 knobs for the current rung: T_p climbs
// linearly from the baseline to 1.0 at the top rung, TopK and MaxSize
// halve per rung (from their baselines, or from conservative defaults
// when the baseline is unbounded). Callers hold g.mu.
func (g *Governor) applyKnobsLocked() {
	g.effTp = g.base.Tp + (1-g.base.Tp)*float64(g.rung)/float64(maxRung)
	if g.rung == maxRung {
		g.effTp = 1 // exact, despite float rounding above
	}
	g.effTpG.Set(g.effTp)
	if g.eng == nil {
		return
	}
	if g.rung == RungNormal {
		_ = g.eng.SetTp(g.base.Tp)
		_ = g.eng.SetLimits(g.base.MaxSize, g.base.TopK)
		return
	}
	topK := g.base.TopK
	if topK <= 0 {
		topK = 16 // impose a cap even when the baseline had none
	}
	if topK >>= uint(g.rung); topK < 1 {
		topK = 1
	}
	maxSize := g.base.MaxSize
	if maxSize <= 0 {
		maxSize = 256 << 10
	}
	maxSize >>= uint(g.rung)
	_ = g.eng.SetTp(g.effTp)
	_ = g.eng.SetLimits(maxSize, topK)
}

// Stats returns a snapshot. Nil-safe: a nil governor reports zeros.
func (g *Governor) Stats() GovernorStats {
	if g == nil {
		return GovernorStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return GovernorStats{
		Rung:        g.rung,
		MaxRungSeen: g.maxRungSeen,
		EffectiveTp: g.effTp,
		LatencyEWMA: g.ewma,
		Moves:       g.moves,
	}
}
