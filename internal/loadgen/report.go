package loadgen

import (
	"encoding/json"
	"fmt"
	"math"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/httpspec"
	"specweb/internal/markov"
)

// ReportSchema versions the BENCH.json layout.
const ReportSchema = "specbench/1"

// Report is the BENCH.json document: one or two arms (speculative and,
// when requested, a no-speculation baseline run of the same workload)
// plus the timing-derived comparison between them. Everything outside
// the Timing sections and Relative block is deterministic for a given
// config and seed — byte-identical across runs, machines and worker
// counts — so regression gates can hold those fields to zero drift.
type Report struct {
	Schema   string       `json:"schema"`
	Config   ConfigInfo   `json:"config"`
	Workload WorkloadInfo `json:"workload"`
	Spec     *Result      `json:"spec"`
	Baseline *Result      `json:"baseline,omitempty"`
	// Relative compares the two arms' wall-clock metrics; ratios of
	// same-process measurements are far more machine-portable than the
	// raw numbers.
	Relative *Relative `json:"relative,omitempty"`
}

// ConfigInfo echoes the generator configuration into the report.
type ConfigInfo struct {
	Profile            string  `json:"profile"`
	Days               int     `json:"days"`
	SessionsPerDay     float64 `json:"sessions_per_day"`
	Seed               int64   `json:"seed"`
	Workers            int     `json:"workers"`
	WarmupFraction     float64 `json:"warmup_fraction"`
	Mode               string  `json:"mode"`
	MaxPush            int     `json:"max_push"`
	Cooperative        bool    `json:"cooperative"`
	PrefetchThreshold  float64 `json:"prefetch_threshold"`
	SessionGapRequests int     `json:"session_gap_requests"`
	Reps               int     `json:"reps,omitempty"`
	OpenLoop           bool    `json:"open_loop"`
	Rate               float64 `json:"rate,omitempty"`
	Burst              int     `json:"burst,omitempty"`
	ThinkMS            float64 `json:"think_ms,omitempty"`
	RealClock          bool    `json:"real_clock,omitempty"`
	Network            bool    `json:"network,omitempty"`
	Chaos              bool    `json:"chaos,omitempty"`
	Overload           bool    `json:"overload,omitempty"`
	Scenario           string  `json:"scenario,omitempty"`
	Estguard           bool    `json:"estguard,omitempty"`
	// MaxRows and RowTopK echo the bounded-estimator caps; absent (0)
	// for exact-estimator runs, so existing reports stay byte-identical.
	MaxRows int `json:"max_rows,omitempty"`
	RowTopK int `json:"row_topk,omitempty"`
	// Restart echoes the kill/restart harness configuration; absent for
	// ordinary runs, so existing reports stay byte-identical.
	Restart *RestartConfig `json:"restart,omitempty"`
	// Stream marks a run that drove the workload from per-client seeded
	// cursors instead of a materialized trace; absent (false) for
	// materialized runs, so existing reports stay byte-identical.
	Stream bool `json:"stream,omitempty"`
	// Trace marks a network run that replayed a supplied trace instead of
	// generating the workload (whose profile fields are then blank);
	// LowPriority and AttribFeedback echo the client-side tagging knobs.
	// All absent for generated workloads, so existing reports stay
	// byte-identical.
	Trace          bool    `json:"trace,omitempty"`
	LowPriority    float64 `json:"low_priority,omitempty"`
	AttribFeedback bool    `json:"attrib_feedback,omitempty"`
}

// WorkloadInfo describes the generated workload.
type WorkloadInfo struct {
	Pages    int   `json:"pages"`
	Clients  int   `json:"clients"`
	Trace    int   `json:"trace_requests"`
	Warmup   int   `json:"warmup_requests"`
	Measured int   `json:"measured_requests"`
	Bytes    int64 `json:"site_bytes"`
}

// Result is one arm's outcome: deterministic counters and ratios plus
// the wall-clock Timing section.
type Result struct {
	Counts Counts `json:"counts"`
	Ratios Ratios `json:"ratios"`
	// Overload is the server's admission/governor ledger, present when
	// the run installed overload control on the in-process server.
	Overload *httpspec.ServerOverloadStats `json:"overload,omitempty"`
	// Attrib is the speculation attribution report for the arm: consumed
	// vs wasted speculative bytes by delivery class, with top-K per-doc
	// rows. Outstanding deliveries are resolved before the report is
	// taken, and the ledger is sized to the whole site, so the section is
	// deterministic — part of the byte-identical fingerprint.
	Attrib *attrib.Report `json:"attrib,omitempty"`
	// Estguard summarizes the estimator-hardening guard's decisions,
	// present when the arm ran with Config.Estguard. Every field is a
	// function of the recorded trace and the seed, so the section is part
	// of the byte-identical fingerprint.
	Estguard *EstguardInfo `json:"estguard,omitempty"`
	// Estimator is the bounded estimator's footprint and eviction ledger
	// at the measurement freeze, present when the arm ran with
	// MaxRows/RowTopK set. Deterministic — every field is a function of
	// the warmup trace — and omitted for exact-estimator runs so those
	// reports stay byte-identical.
	Estimator *markov.EstimatorStats `json:"estimator,omitempty"`
	// Checkpoint carries the durable-state counters when the arm ran
	// with checkpointing (the restart harness); deterministic, and
	// omitted — byte-identically — when checkpointing is off.
	Checkpoint *checkpoint.Counters `json:"checkpoint,omitempty"`
	// Restart is the per-phase crash ledger of a restart-harness arm.
	Restart *RestartInfo `json:"restart,omitempty"`
	Timing  *Timing      `json:"timing,omitempty"`
}

// EstguardInfo is the guard's deterministic decision ledger for one arm.
type EstguardInfo struct {
	QuarantinedClients  int64   `json:"quarantined_clients"`
	QuarantinedRequests int64   `json:"quarantined_requests"`
	Promotions          int64   `json:"promotions,omitempty"`
	Demotions           int64   `json:"demotions,omitempty"`
	Refreshes           int64   `json:"refreshes"`
	EarlyRefreshes      int64   `json:"early_refreshes,omitempty"`
	SnapshotsRejected   int64   `json:"snapshots_rejected,omitempty"`
	ForcedAccepts       int64   `json:"forced_accepts,omitempty"`
	DriftScore          float64 `json:"drift_score,omitempty"`
}

// Counts are the measurement-phase totals summed over all clients
// (warmup activity is subtracted out). All are deterministic under the
// virtual clock.
type Counts struct {
	Requests      int64 `json:"requests"`
	WarmupErrors  int64 `json:"warmup_errors"`
	CacheHits     int64 `json:"cache_hits"`
	SpecHits      int64 `json:"spec_hits"`
	Pushed        int64 `json:"pushed"`
	Prefetched    int64 `json:"prefetched"`
	Errors        int64 `json:"errors"`
	Shed          int64 `json:"shed"`
	Retries       int64 `json:"retries"`
	StaleServes   int64 `json:"stale_serves"`
	BytesIn       int64 `json:"bytes_in"`
	DemandBytes   int64 `json:"demand_bytes"`
	MissBytes     int64 `json:"miss_bytes"`
	SpecHitBytes  int64 `json:"spec_hit_bytes"`
	BaselineBytes int64 `json:"baseline_bytes"`
}

// Ratios are the count-based paper ratios (Figs. 5–6): speculative
// service over the non-speculative baseline the same session caches
// would have seen. The fourth paper ratio — service time — is wall-clock
// by nature and lives in Timing.ServiceTime.
type Ratios struct {
	Bandwidth    float64 `json:"bandwidth"`
	ServerLoad   float64 `json:"server_load"`
	ByteMissRate float64 `json:"byte_miss_rate"`
}

// Timing is the wall-clock section: excluded from the deterministic
// fingerprint, compared only through tolerance gates.
type Timing struct {
	DurationSeconds float64      `json:"duration_seconds"`
	Throughput      float64      `json:"throughput_rps"`
	Latency         Quantiles    `json:"latency_ms"`
	ServiceTime     float64      `json:"service_time"`
	Histogram       []HistBucket `json:"histogram,omitempty"`
	// Memory records the process heap at report time. It lives inside
	// Timing — machine- and GC-schedule-dependent — so Deterministic()
	// strips it and Compare ignores it.
	Memory *MemoryInfo `json:"memory,omitempty"`
}

// MemoryInfo is a runtime.ReadMemStats snapshot taken when the arm's
// report is assembled: live heap bytes and total bytes obtained from the
// OS. The streaming memory gate reads these to prove the cursor path's
// O(workers + sessions) footprint against the materialized trace.
type MemoryInfo struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
}

// Quantiles are latency percentiles in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Relative compares the speculative arm to the baseline arm run in the
// same process: P99Ratio < 1 means speculation improved tail latency,
// ThroughputRatio > 1 means it improved throughput.
type Relative struct {
	P99Ratio        float64 `json:"p99_ratio"`
	ThroughputRatio float64 `json:"throughput_ratio"`
}

// quantiles extracts the report percentiles from a histogram.
func quantiles(h *Hist) Quantiles {
	ms := func(d float64) float64 { return d / 1e6 }
	return Quantiles{
		P50:  ms(float64(h.Quantile(0.50))),
		P90:  ms(float64(h.Quantile(0.90))),
		P99:  ms(float64(h.Quantile(0.99))),
		P999: ms(float64(h.Quantile(0.999))),
		Mean: ms(float64(h.Mean())),
		Max:  ms(float64(h.Max())),
	}
}

// Deterministic returns the report with every wall-clock field removed:
// the portion that must be byte-identical across runs of one config.
func (r *Report) Deterministic() *Report {
	out := *r
	out.Relative = nil
	strip := func(res *Result) *Result {
		if res == nil {
			return nil
		}
		c := *res
		c.Timing = nil
		return &c
	}
	out.Spec = strip(r.Spec)
	out.Baseline = strip(r.Baseline)
	return &out
}

// DeterministicJSON marshals the deterministic portion, indented.
func (r *Report) DeterministicJSON() ([]byte, error) {
	return json.MarshalIndent(r.Deterministic(), "", "  ")
}

// JSON marshals the full report, indented.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CompareOptions tune the regression gate.
type CompareOptions struct {
	// TolerancePct is the allowed relative drift, in percent, for every
	// gated metric (default 10).
	TolerancePct float64
	// LatencySlackMS forgives absolute latency differences below this
	// many milliseconds — sub-millisecond in-process runs sit inside
	// scheduler noise and one histogram bucket (default 0.75).
	LatencySlackMS float64
	// Absolute additionally gates the raw per-arm throughput and p99,
	// which only makes sense when baseline and candidate ran on the
	// same class of machine. Off by default: the machine-portable gates
	// are the deterministic counts/ratios and the arm-relative timing.
	Absolute bool
}

// Compare gates current against baseline, returning one message per
// violated bound (empty means the gate passes). Deterministic counts and
// ratios must stay within tolerance; errors and shed may not appear
// where the baseline had none; the arm-relative p99 and throughput
// ratios may not regress by more than the tolerance.
func Compare(baseline, current *Report, opt CompareOptions) []string {
	if opt.TolerancePct <= 0 {
		opt.TolerancePct = 10
	}
	if opt.LatencySlackMS <= 0 {
		opt.LatencySlackMS = 0.75
	}
	tol := opt.TolerancePct / 100
	var v []string
	fail := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	if baseline.Schema != current.Schema {
		fail("schema changed: %s -> %s", baseline.Schema, current.Schema)
	}

	relDrift := func(name string, base, cur float64) {
		if base == 0 && cur == 0 {
			return
		}
		den := math.Abs(base)
		if den == 0 {
			den = 1
		}
		if d := math.Abs(cur-base) / den; d > tol {
			fail("%s drifted %.1f%% (baseline %.6g, current %.6g, tolerance %.0f%%)",
				name, d*100, base, cur, opt.TolerancePct)
		}
	}
	// Latency-style: regression only (higher is worse), with the
	// absolute slack floor.
	latWorse := func(name string, base, cur float64) {
		if cur <= base*(1+tol) || cur-base <= opt.LatencySlackMS {
			return
		}
		fail("%s regressed %.1f%% (baseline %.4gms, current %.4gms)",
			name, (cur/base-1)*100, base, cur)
	}

	arm := func(name string, base, cur *Result) {
		if base == nil || cur == nil {
			if base != cur {
				fail("%s arm present in only one report", name)
			}
			return
		}
		relDrift(name+".counts.requests", float64(base.Counts.Requests), float64(cur.Counts.Requests))
		relDrift(name+".counts.bytes_in", float64(base.Counts.BytesIn), float64(cur.Counts.BytesIn))
		relDrift(name+".counts.spec_hits", float64(base.Counts.SpecHits), float64(cur.Counts.SpecHits))
		if base.Counts.Errors == 0 && cur.Counts.Errors > 0 {
			fail("%s.counts.errors: baseline had none, current has %d", name, cur.Counts.Errors)
		}
		if base.Counts.Shed == 0 && cur.Counts.Shed > 0 {
			fail("%s.counts.shed: baseline had none, current has %d", name, cur.Counts.Shed)
		}
		relDrift(name+".ratios.bandwidth", base.Ratios.Bandwidth, cur.Ratios.Bandwidth)
		relDrift(name+".ratios.server_load", base.Ratios.ServerLoad, cur.Ratios.ServerLoad)
		relDrift(name+".ratios.byte_miss_rate", base.Ratios.ByteMissRate, cur.Ratios.ByteMissRate)
		if opt.Absolute && base.Timing != nil && cur.Timing != nil {
			latWorse(name+".timing.latency_ms.p99", base.Timing.Latency.P99, cur.Timing.Latency.P99)
			if bt, ct := base.Timing.Throughput, cur.Timing.Throughput; bt > 0 && ct < bt*(1-tol) {
				fail("%s.timing.throughput_rps regressed %.1f%% (baseline %.6g, current %.6g)",
					name, (1-ct/bt)*100, bt, ct)
			}
		}
	}
	arm("spec", baseline.Spec, current.Spec)
	arm("baseline", baseline.Baseline, current.Baseline)

	if b, c := baseline.Relative, current.Relative; b != nil && c != nil {
		// The spec arm's p99 may not grow relative to the no-spec arm
		// beyond tolerance — unless the absolute p99 gap is inside the
		// slack floor (microsecond in-process tails bounce between
		// adjacent histogram buckets).
		if c.P99Ratio > b.P99Ratio*(1+tol) &&
			current.Spec != nil && current.Baseline != nil &&
			current.Spec.Timing != nil && current.Baseline.Timing != nil &&
			current.Spec.Timing.Latency.P99-current.Baseline.Timing.Latency.P99 > opt.LatencySlackMS {
			fail("relative.p99_ratio regressed: baseline %.4g, current %.4g", b.P99Ratio, c.P99Ratio)
		}
		if b.ThroughputRatio > 0 && c.ThroughputRatio < b.ThroughputRatio*(1-tol) {
			fail("relative.throughput_ratio regressed: baseline %.4g, current %.4g",
				b.ThroughputRatio, c.ThroughputRatio)
		}
	}
	return v
}
