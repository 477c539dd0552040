package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/httpspec"
)

// PartialSchema versions the partial-report wire layout exchanged
// between specbench workers and the coordinator.
const PartialSchema = "specbench-partial/1"

// PartialArm is one arm's shard-local outcome in raw, mergeable form:
// measurement counts restricted to the shard's clients, the exported
// histogram, the miss accumulators behind the service-time ratio, the
// raw attribution export, and the overload freeze/end snapshots. Every
// field is either a commutative sum over the shard's clients or (for
// warmup-derived values) identical across shards, which is what makes
// MergePartials exact.
type PartialArm struct {
	Counts         Counts                        `json:"counts"`
	Hist           HistState                     `json:"hist"`
	MissDurNS      int64                         `json:"miss_dur_ns"`
	MissCount      int64                         `json:"miss_count"`
	ElapsedNS      int64                         `json:"elapsed_ns"`
	Attrib         *attrib.Export                `json:"attrib,omitempty"`
	OverloadFreeze *httpspec.ServerOverloadStats `json:"overload_freeze,omitempty"`
	OverloadEnd    *httpspec.ServerOverloadStats `json:"overload_end,omitempty"`
}

// Partial is one worker process's report over its client shard. A
// coordinator collects one per shard and merges them into a BENCH
// Report whose deterministic section is byte-identical to the
// single-process run of the same config.
type Partial struct {
	Schema     string       `json:"schema"`
	ShardIndex int          `json:"shard_index"`
	ShardCount int          `json:"shard_count"`
	Config     ConfigInfo   `json:"config"`
	Workload   WorkloadInfo `json:"workload"`
	Spec       PartialArm   `json:"spec"`
	Baseline   *PartialArm  `json:"baseline,omitempty"`
}

// RunPartial executes cfg's shard (spec arm and, when withBaseline and
// cfg.Speculate, the no-speculation arm of the identical workload) and
// returns the raw partial report for the coordinator.
func RunPartial(cfg Config, withBaseline bool) (*Partial, error) {
	shards := cfg.ShardCount
	if shards <= 0 {
		shards = 1
	}
	var raw armRaw
	cfg.raw = &raw
	res, winfo, cinfo, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	p := &Partial{
		Schema:     PartialSchema,
		ShardIndex: cfg.ShardIndex,
		ShardCount: shards,
		Config:     cinfo,
		Workload:   *winfo,
		Spec:       partialArm(res, raw),
	}
	if withBaseline && cfg.Speculate {
		b := cfg
		b.Speculate = false
		var braw armRaw
		b.raw = &braw
		bres, _, _, err := Run(b)
		if err != nil {
			return nil, err
		}
		arm := partialArm(bres, braw)
		p.Baseline = &arm
	}
	return p, nil
}

func partialArm(res *Result, raw armRaw) PartialArm {
	return PartialArm{
		Counts:         res.Counts,
		Hist:           raw.Hist,
		MissDurNS:      raw.MissDurNS,
		MissCount:      raw.MissCount,
		ElapsedNS:      raw.ElapsedNS,
		Attrib:         raw.Attrib,
		OverloadFreeze: raw.OverloadFreeze,
		OverloadEnd:    res.Overload,
	}
}

// MergePartials folds one partial per shard into the full BENCH Report.
// Counts sum (warmup errors, identical across shards by construction,
// are taken from the first and cross-checked); histograms merge exactly;
// ratios and timing are recomputed from the merged raw state with the
// same formulas the single-process aggregate uses; attribution exports
// merge through attrib.MergeExports; overload counters reconstruct as
// freeze + Σ per-shard measurement deltas with gauges from shard 0.
func MergePartials(parts []*Partial) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("loadgen: no partials to merge")
	}
	want := parts[0].ShardCount
	if want <= 0 {
		want = 1
	}
	if len(parts) != want {
		return nil, fmt.Errorf("loadgen: have %d partials for %d shards", len(parts), want)
	}
	seen := make(map[int]bool, want)
	firstCfg, err := json.Marshal(struct {
		C ConfigInfo
		W WorkloadInfo
	}{parts[0].Config, parts[0].Workload})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if p.Schema != PartialSchema {
			return nil, fmt.Errorf("loadgen: partial schema %q, want %q", p.Schema, PartialSchema)
		}
		if p.ShardCount != parts[0].ShardCount {
			return nil, fmt.Errorf("loadgen: shard-count mismatch: %d vs %d", p.ShardCount, parts[0].ShardCount)
		}
		if p.ShardIndex < 0 || p.ShardIndex >= want || seen[p.ShardIndex] {
			return nil, fmt.Errorf("loadgen: bad or duplicate shard index %d", p.ShardIndex)
		}
		seen[p.ShardIndex] = true
		cfg, err := json.Marshal(struct {
			C ConfigInfo
			W WorkloadInfo
		}{p.Config, p.Workload})
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(cfg, firstCfg) {
			return nil, fmt.Errorf("loadgen: shard %d ran a different config/workload", p.ShardIndex)
		}
	}

	rep := &Report{Schema: ReportSchema, Config: parts[0].Config, Workload: parts[0].Workload}
	specArms := make([]PartialArm, len(parts))
	var baseArms []PartialArm
	nBase := 0
	for i, p := range parts {
		specArms[i] = p.Spec
		if p.Baseline != nil {
			nBase++
			baseArms = append(baseArms, *p.Baseline)
		}
	}
	if nBase != 0 && nBase != len(parts) {
		return nil, fmt.Errorf("loadgen: baseline arm present in %d of %d partials", nBase, len(parts))
	}
	rep.Spec, err = mergeArms(specArms)
	if err != nil {
		return nil, err
	}
	if nBase > 0 {
		rep.Baseline, err = mergeArms(baseArms)
		if err != nil {
			return nil, err
		}
		if st, bt := rep.Spec.Timing, rep.Baseline.Timing; st != nil && bt != nil &&
			bt.Latency.P99 > 0 && bt.Throughput > 0 {
			rep.Relative = &Relative{
				P99Ratio:        st.Latency.P99 / bt.Latency.P99,
				ThroughputRatio: st.Throughput / bt.Throughput,
			}
		}
	}

	// The coordinator's own heap snapshot stands in for the per-process
	// memory lines (wall-clock section; never part of the fingerprint).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, res := range []*Result{rep.Spec, rep.Baseline} {
		if res != nil && res.Timing != nil {
			res.Timing.Memory = &MemoryInfo{HeapAllocBytes: ms.HeapAlloc, SysBytes: ms.Sys}
		}
	}
	return rep, nil
}

// mergeArms reconstructs one arm's Result from its shard partials by
// feeding the merged raw state through paperResult, exactly as the
// single-process aggregate does.
func mergeArms(arms []PartialArm) (*Result, error) {
	var (
		c         Counts
		missDur   time.Duration
		missCount int64
		elapsed   time.Duration
		exports   []*attrib.Export
		haveAttr  bool
	)
	hist := NewHist()
	for i, a := range arms {
		h, err := ImportHist(a.Hist)
		if err != nil {
			return nil, err
		}
		hist.Merge(h)
		missDur += time.Duration(a.MissDurNS)
		missCount += a.MissCount
		if e := time.Duration(a.ElapsedNS); e > elapsed {
			elapsed = e
		}
		if i == 0 {
			c.WarmupErrors = a.Counts.WarmupErrors
		} else if a.Counts.WarmupErrors != c.WarmupErrors {
			return nil, fmt.Errorf("loadgen: shards disagree on warmup errors (%d vs %d) — warmup replays diverged",
				a.Counts.WarmupErrors, c.WarmupErrors)
		}
		c.Requests += a.Counts.Requests
		c.CacheHits += a.Counts.CacheHits
		c.SpecHits += a.Counts.SpecHits
		c.Pushed += a.Counts.Pushed
		c.Prefetched += a.Counts.Prefetched
		c.Errors += a.Counts.Errors
		c.Shed += a.Counts.Shed
		c.Retries += a.Counts.Retries
		c.StaleServes += a.Counts.StaleServes
		c.BytesIn += a.Counts.BytesIn
		c.DemandBytes += a.Counts.DemandBytes
		c.MissBytes += a.Counts.MissBytes
		c.SpecHitBytes += a.Counts.SpecHitBytes
		if a.Attrib != nil {
			haveAttr = true
		}
		exports = append(exports, a.Attrib)
	}
	res := paperResult(c, hist, missDur, missCount, elapsed)
	if haveAttr {
		rep, err := attrib.MergeExports(exports, attribTopDocs)
		if err != nil {
			return nil, err
		}
		res.Attrib = rep
	}
	res.Overload = mergeOverload(arms)
	return res, nil
}

// mergeOverload reconstructs the single-process overload stats: the
// warmup-boundary freeze snapshot is identical across shards (every
// shard replays the full warmup under the frozen virtual clock), the
// measurement-phase counter deltas partition by shard, and the gauges
// and governor state come from shard 0's end snapshot.
func mergeOverload(arms []PartialArm) *httpspec.ServerOverloadStats {
	first := arms[0].OverloadEnd
	if first == nil {
		return nil
	}
	out := *first
	if out.Admission != nil {
		adm := *out.Admission
		out.Admission = &adm
	}
	fz := arms[0].OverloadFreeze
	if fz == nil || len(arms) == 1 {
		return &out
	}
	out.PushesSuppressed = fz.PushesSuppressed
	out.EmbedsSuppressed = fz.EmbedsSuppressed
	out.DemandShed = fz.DemandShed
	for _, a := range arms {
		e, f := a.OverloadEnd, a.OverloadFreeze
		if e == nil || f == nil {
			continue
		}
		out.PushesSuppressed += e.PushesSuppressed - f.PushesSuppressed
		out.EmbedsSuppressed += e.EmbedsSuppressed - f.EmbedsSuppressed
		out.DemandShed += e.DemandShed - f.DemandShed
	}
	if out.Admission != nil && fz.Admission != nil {
		d, s := fz.Admission.Demand, fz.Admission.Speculative
		for _, a := range arms {
			if a.OverloadEnd == nil || a.OverloadEnd.Admission == nil ||
				a.OverloadFreeze == nil || a.OverloadFreeze.Admission == nil {
				continue
			}
			ea, fa := a.OverloadEnd.Admission, a.OverloadFreeze.Admission
			d.Admitted += ea.Demand.Admitted - fa.Demand.Admitted
			d.Rejected += ea.Demand.Rejected - fa.Demand.Rejected
			d.Queued += ea.Demand.Queued - fa.Demand.Queued
			s.Admitted += ea.Speculative.Admitted - fa.Speculative.Admitted
			s.Rejected += ea.Speculative.Rejected - fa.Speculative.Rejected
			s.Queued += ea.Speculative.Queued - fa.Speculative.Queued
		}
		d.Inflight, d.Waiting = out.Admission.Demand.Inflight, out.Admission.Demand.Waiting
		s.Inflight, s.Waiting = out.Admission.Speculative.Inflight, out.Admission.Speculative.Waiting
		out.Admission.Demand, out.Admission.Speculative = d, s
	}
	return &out
}
