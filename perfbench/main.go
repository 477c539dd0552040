// Command perfbench is the repository benchmark. It drives the in-process
// speculative HTTP stack (SiteStore → Server → in-process transport →
// one Client per trace client) with a seeded trace, once with speculation
// on (the spec arm) and once with it off (the base arm), checks every
// response body, and prints the end-to-end metrics; with --trace 1 it
// adds a traced run and prints the per-layer metrics instead. Traffic
// crosses no socket. See README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload dept-hints --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"specweb/internal/core"
	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/stats"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// workload is one traffic mix the benchmark runs.
type workload struct {
	name string
	// cfg sizes the site and trace; cfg.Seed is the site seed, fixed per
	// workload, while --seed drives the trace.
	cfg      experiments.WorkloadConfig
	mode     httpspec.Mode // the spec arm's delivery mode
	prefetch float64       // the spec arm's hint-following threshold
	drivers  int           // closed-loop driver goroutines
	// live selects the open loop at liveRate, served by one goroutine,
	// with the engine learning during measurement.
	live bool
	// warmup is the leading share of the trace replayed before the
	// measurement.
	warmup float64
	// roundSeconds is the share of --seconds one round (both arms, each
	// on its own trace) stands for; a run makes --seconds / roundSeconds
	// rounds, at least minRounds. It is sized so a run with --seconds 10
	// takes 20 to 30 s on a 2-core host.
	roundSeconds float64
}

const (
	// liveRate is dept-live's fixed arrival rate in demand requests per
	// second: about a third of one driver's capacity on the spec arm
	// (about 45 µs per request) on a 2-core host.
	liveRate = 6500
	// liveMaxRows bounds dept-live's estimator below the site's 700 pages.
	liveMaxRows = 512
	// liveWarmup ends dept-live's warm-up 2.9 days into its 4-day trace,
	// so each measured phase holds exactly one inline refresh, about a
	// day later. A round's p99 then tracks that one stall, and the median
	// over rounds tracks the typical stall rather than the longest of a
	// few. The short measured phase keeps the p99 near the top of the
	// stall's queue: the more requests a round measures outside the
	// stall, the further down the queue its p99 falls, and the more a
	// small change in the stall moves it.
	liveWarmup = 0.72
	// maxLateP99 is the open-loop pacer's lateness bound: a run whose
	// pacer started requests later than this at p99, over all its arms,
	// is refused. A pacer that sleeps per request runs late on most
	// requests; a host that preempts the serving thread now and then
	// makes a few requests late, and may crowd them into one short arm.
	maxLateP99 = time.Millisecond
	// minRounds is the fewest rounds a run makes, so setup_s is a median
	// of several set-ups.
	minRounds = 3
)

// workloads are the benchmark's traffic mixes; README.md says why each
// was chosen.
func workloads() []*workload {
	// The media site with its object-size tail replaced by a lognormal of
	// median 110 KB: the stock bounded-Pareto tail (up to 40 MB) makes a
	// trace that fits in memory hinge its byte totals on one or two huge
	// objects, so the paper's byte ratios would vary several-fold by seed.
	media := experiments.MediaWorkload()
	media.Profile.ObjectSize = stats.NewLognormal(11.6, 0.5)
	media.Days = 10
	media.SessionsPerDay = 100
	// The department site over 30 of the paper's 90 days: a round takes
	// about 3 s, so a run takes the median of 8 rounds instead of 3.
	hints := experiments.DefaultWorkload()
	hints.Days = 30
	live := experiments.DefaultWorkload()
	live.Days = 4
	return []*workload{
		{name: "dept-hints", cfg: hints, mode: httpspec.ModeHybrid, prefetch: 0.25,
			drivers: 2, warmup: warmupFraction, roundSeconds: 1.25},
		{name: "media-push", cfg: media, mode: httpspec.ModePush, drivers: 2,
			warmup: warmupFraction, roundSeconds: 0.85},
		{name: "dept-live", cfg: live, mode: httpspec.ModeHybrid, prefetch: 0.25,
			live: true, warmup: liveWarmup, roundSeconds: 0.4},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "dept-hints", "workload: dept-hints, media-push or dept-live")
	seed := fs.Int64("seed", 1, "trace seed")
	seconds := fs.Int("seconds", 10, "measure at least this long (whole rounds of both arms)")
	traced := fs.Int("trace", 0, "1: add a traced run and report the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span files and checkpoint state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var rep *report
	if *traced == 1 {
		rep, err = measureTraced(w, *seed, *out)
	} else {
		rep, err = measureTimed(w, *seed, time.Duration(*seconds)*time.Second, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout, stderr)
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// counts are an arm's deterministic counters over the measured phase
// (the attribution ledger covers the whole arm, as loadgen reports it).
type counts struct {
	Requests, CacheHits, SpecHits, Pushed, Prefetched, Shed int64
	BytesIn, DemandBytes, MissBytes, SpecHitBytes           int64
	Errors, WarmupErrors                                    int64
	ServerRequests, Bundles, DocsPushed, Hints              int64
	Refreshes, SnapshotsRejected, CheckpointsSaved          int64
	AttribDeliveries, AttribDeliveredBytes                  int64
	AttribConsumed, AttribConsumedBytes                     int64
	AttribWasted, AttribWastedBytes                         int64
}

func (c counts) baselineBytes() int64 { return c.MissBytes + c.SpecHitBytes }

// add sums o into c field by field.
func (c *counts) add(o counts) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Field(i)
		f.SetInt(f.Int() + ov.Field(i).Int())
	}
}

// armResult is one arm of one round.
type armResult struct {
	counts   counts
	setup    setupTimes
	elapsed  time.Duration
	drv      driverResult
	rt       runtimeSample
	heap     uint64 // live heap after a forced GC, spec arm only
	pairs    int
	layers   [numLayers]layerStats // traced arms only
	decideNs float64               // traced arms only
	problems []string
}

// runArm builds the workload and stack, warms up, freezes, and measures
// one arm.
func runArm(w *workload, seed int64, spec, traced bool, out string) (*armResult, error) {
	a := &armResult{}
	t0 := time.Now()
	site, tr, err := buildWorkload(w, seed)
	if err != nil {
		return nil, err
	}
	a.setup.build = time.Since(t0)

	var spans *spanSet
	if traced {
		spans = newSpanSet()
	}
	var dir string
	if w.live {
		if dir, err = ckDir(filepath.Join(out, "ckpt")); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	t1 := time.Now()
	s, err := newStack(w, seed, spec, site, tr, spans, dir)
	if err != nil {
		return nil, err
	}
	warmN := int(w.warmup * float64(tr.Len()))
	if warmN < 1 || warmN >= tr.Len() {
		return nil, fmt.Errorf("trace of %d requests too short", tr.Len())
	}
	werrs, freeze := s.warmup(tr.Requests[:warmN])
	a.setup.warmup = time.Since(t1) - freeze
	a.setup.freeze = freeze
	a.counts.WarmupErrors = werrs
	if werrs > 0 {
		a.problems = append(a.problems, fmt.Sprintf("%d warm-up errors", werrs))
	}

	measured := tr.Requests[warmN:]
	exp := newExpect(site, traced)
	eng := s.srv.Engine()
	srv0, eng0 := s.srv.Stats(), eng.Stats()
	var ck0 int64
	if s.ck != nil {
		ck0 = s.ck.Counters().Saved
	}
	runtime.GC()
	spans.start()
	rt0 := readRuntime()
	start := time.Now()
	var results []*driverResult
	if w.live {
		results = s.openLoop(measured, exp)
	} else {
		results = s.closedLoop(measured, exp)
	}
	a.elapsed = time.Since(start)
	a.rt = readRuntime().sub(rt0)
	spans.stop()

	for _, r := range results {
		d := &a.drv
		d.attempted += r.attempted
		d.errors += r.errors
		d.shed += r.shed
		d.missNs = append(d.missNs, r.missNs...)
		d.sumNs += r.sumNs
		d.serviceNs += r.serviceNs
		d.lateNs = append(d.lateNs, r.lateNs...)
		d.waitNs = append(d.waitNs, r.waitNs...)
		d.stallNs += r.stallNs
		a.problems = append(a.problems, r.problems...)
	}

	c := &a.counts
	for _, id := range s.order {
		cl := s.clients[id]
		cs, ws := cl.c.Stats(), cl.warm
		c.Requests += cs.Fetches - ws.Fetches
		c.CacheHits += cs.CacheHits - ws.CacheHits
		c.SpecHits += cs.SpecHits - ws.SpecHits
		c.Pushed += cs.Pushed - ws.Pushed
		c.Prefetched += cs.Prefetched - ws.Prefetched
		c.Shed += cs.Shed - ws.Shed
		c.BytesIn += cs.BytesIn - ws.BytesIn
		c.DemandBytes += cs.DemandBytes - ws.DemandBytes
		c.MissBytes += cs.MissBytes - ws.MissBytes
		c.SpecHitBytes += cs.SpecHitBytes - ws.SpecHitBytes
	}
	c.Errors = a.drv.errors
	srv1, eng1 := s.srv.Stats(), eng.Stats()
	c.ServerRequests = srv1.Requests - srv0.Requests
	c.Bundles = srv1.BundlesBuilt - srv0.BundlesBuilt
	c.DocsPushed = srv1.DocsPushed - srv0.DocsPushed
	c.Hints = srv1.HintsSent - srv0.HintsSent
	c.Refreshes = eng1.Refreshes - eng0.Refreshes
	c.SnapshotsRejected = eng1.SnapshotsRejected
	a.pairs = eng1.Pairs
	if s.ck != nil {
		c.CheckpointsSaved = s.ck.Counters().Saved - ck0
	}
	if s.led != nil {
		// Every speculative copy still unused in a session cache is waste.
		for _, id := range s.order {
			s.clients[id].c.ResolveOutstanding()
		}
		rep := s.led.Report(0)
		t := rep.Totals
		c.AttribDeliveries, c.AttribDeliveredBytes = t.Deliveries, t.DeliveredBytes
		c.AttribConsumed, c.AttribConsumedBytes = t.Consumed, t.ConsumedBytes
		c.AttribWasted, c.AttribWastedBytes = t.Wasted, t.WastedBytes
		if rep.Outstanding != 0 || t.Deliveries != t.Consumed+t.Wasted ||
			t.DeliveredBytes != t.ConsumedBytes+t.WastedBytes {
			a.problems = append(a.problems, fmt.Sprintf(
				"attrib ledger unbalanced: outstanding %d, delivered %d (%d B), consumed %d (%d B), wasted %d (%d B)",
				rep.Outstanding, t.Deliveries, t.DeliveredBytes, t.Consumed, t.ConsumedBytes, t.Wasted, t.WastedBytes))
		}
	}
	if spec {
		a.heap = liveHeap()
	}
	if traced {
		a.layers = spans.layerReport()
		for l, st := range a.layers {
			if st.unfinished > 0 {
				a.problems = append(a.problems, fmt.Sprintf("%d unfinished %s spans", st.unfinished, layerNames[l]))
			}
		}
		a.decideNs = decideNs(eng, s.srvMode(), site, measured)
		if err := os.MkdirAll(filepath.Join(out, "spans"), 0o755); err != nil {
			return nil, err
		}
		file := filepath.Join(out, "spans", fmt.Sprintf("%s-%s.csv", w.name, armName(spec)))
		if err := spans.write(file); err != nil {
			return nil, err
		}
	}
	// The stack and trace stay reachable through liveHeap above, so
	// peak_heap_mb counts the clients' caches.
	runtime.KeepAlive(s)
	runtime.KeepAlive(tr)
	return a, nil
}

func armName(spec bool) string {
	if spec {
		return "spec"
	}
	return "base"
}

func (s *stack) srvMode() httpspec.Mode {
	if s.spec {
		return s.w.mode
	}
	return httpspec.ModePush
}

// decideNs is the median cost of the server's decision call for the arm's
// mode, replayed over every measured document against the final
// snapshot. Calls are timed in batches, so clock reads do not dominate.
func decideNs(eng *core.Engine, mode httpspec.Mode, site *webgraph.Site, reqs []trace.Request) float64 {
	docs := make([]webgraph.DocID, 0, len(reqs))
	for i := range reqs {
		if d := site.ByPath(reqs[i].Path); d != nil {
			docs = append(docs, d.ID)
		}
	}
	d := core.AcquireDecision()
	defer core.ReleaseDecision(d)
	have := make(map[webgraph.DocID]bool, 1)
	const batch = 64
	var per []float64
	for i := 0; i+batch <= len(docs); i += batch {
		t0 := time.Now()
		for _, id := range docs[i : i+batch] {
			have[id] = true // the server never pushes the requested document
			if mode == httpspec.ModeHybrid {
				eng.SplitInto(d, id, have)
			} else {
				eng.SpeculateInto(d, id, have)
			}
			delete(have, id)
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return median(per)
}

// round is one spec arm and one base arm on the same trace.
type round struct{ spec, base *armResult }

func runRound(w *workload, seed int64, traced bool, out string) (round, error) {
	spec, err := runArm(w, seed, true, traced, out)
	if err != nil {
		return round{}, fmt.Errorf("spec arm: %w", err)
	}
	base, err := runArm(w, seed, false, traced, out)
	if err != nil {
		return round{}, fmt.Errorf("base arm: %w", err)
	}
	return round{spec: spec, base: base}, nil
}

// roundSeed is the trace seed of round r of a run with seed: the run's
// own seed for the first round, a derived one for later rounds, so a run
// pools several independent traces.
func roundSeed(seed int64, r int) int64 {
	if r == 0 {
		return seed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench/%d/%d", seed, r)
	return int64(h.Sum64() >> 1)
}

// numRounds is how many rounds fill d at the workload's nominal round
// length: a function of the arguments only, so the pooled counts of a
// run are deterministic.
func (w *workload) numRounds(d time.Duration) int {
	return max(minRounds, int(math.Round(d.Seconds()/w.roundSeconds)))
}

// metric is one printed result.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count, or which end-to-end metric a layer moves
}

type report struct {
	metrics           []metric
	attempted, failed int64
	problems          []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// check folds rounds into the report's totals and output checks. Within
// a round the arms must agree: both measure the same demand requests, and
// the base arm fetches exactly the bytes the spec arm counts as its
// no-speculation baseline. Over the run, the open-loop pacer must have
// kept its schedule.
func (r *report) check(rounds []round) {
	var late []int64
	for i, rd := range rounds {
		for _, a := range []*armResult{rd.spec, rd.base} {
			r.attempted += a.drv.attempted
			r.failed += a.drv.errors + a.drv.shed
			late = append(late, a.drv.lateNs...)
			for _, p := range a.problems {
				r.problems = append(r.problems, fmt.Sprintf("round %d: %s", i+1, p))
			}
		}
		spec, base := rd.spec.counts, rd.base.counts
		if base.Requests != spec.Requests || base.BytesIn != spec.baselineBytes() {
			r.problems = append(r.problems, fmt.Sprintf(
				"round %d: base arm measured %d requests and %d bytes, spec arm %d requests and a %d-byte baseline",
				i+1, base.Requests, base.BytesIn, spec.Requests, spec.baselineBytes()))
		}
	}
	if p99 := sortedQuantile(late, 0.99); p99 > float64(maxLateP99) {
		r.problems = append(r.problems, fmt.Sprintf("pacer ran late: p99 %.3f ms exceeds the %v bound", p99/1e6, maxLateP99))
	}
}

// measureTimed runs the workload's rounds for d, each on its own trace,
// and reports the end-to-end metrics: the paper's ratios over the pooled
// counts, and medians over rounds of everything timed. A median over
// rounds shrugs off a burst of load from other tenants that a pooled
// percentile would absorb.
func measureTimed(w *workload, seed int64, d time.Duration, out string) (*report, error) {
	var rounds []round
	for r := 0; r < w.numRounds(d); r++ {
		rd, err := runRound(w, roundSeed(seed, r), false, out)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
	}
	rep := &report{}
	rep.check(rounds)

	var (
		setup, specRPS, baseRPS, st, alloc, heap []float64
		specMiss, baseMiss                       percentiles
		c                                        counts
	)
	for _, rd := range rounds {
		s, b := rd.spec, rd.base
		setup = append(setup, (s.setup.total() + b.setup.total()).Seconds())
		specRPS = append(specRPS, completedPerSecond(s))
		baseRPS = append(baseRPS, completedPerSecond(b))
		st = append(st, serviceTimeRatio(s))
		alloc = append(alloc, float64(s.rt.allocBytes)/1024/float64(max(s.drv.attempted, 1)))
		heap = append(heap, float64(s.heap)/(1<<20))
		specMiss.add(s.drv.missNs)
		baseMiss.add(b.drv.missNs)
		c.add(s.counts)
	}
	rep.add("setup_s", median(setup), "s", fmt.Sprintf("median of %d set-ups", len(rounds)))
	rep.add("spec_rps", median(specRPS), "1/s", fmt.Sprintf("median of %d rounds", len(rounds)))
	rep.add("base_rps", median(baseRPS), "1/s", fmt.Sprintf("median of %d rounds", len(rounds)))
	specMiss.report(rep, "spec_miss")
	baseMiss.report(rep, "base_miss")
	rep.add("service_time_ratio", median(st), "ratio", fmt.Sprintf("median of %d rounds", len(rounds)))
	rep.add("bandwidth_ratio", ratio(c.BytesIn, c.baselineBytes()), "ratio", "")
	rep.add("server_load_ratio", ratio(c.Requests-c.CacheHits+c.Prefetched, c.Requests-c.CacheHits+c.SpecHits), "ratio", "")
	rep.add("byte_miss_ratio", ratio(c.MissBytes, c.baselineBytes()), "ratio", "")
	okFrac := 1.0
	if rep.attempted > 0 {
		okFrac = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	rep.add("ok_frac", okFrac, "frac", fmt.Sprintf("error_frac %g", 1-okFrac))
	rep.add("spec_alloc_kb_per_req", median(alloc), "KB", fmt.Sprintf("median of %d rounds", len(rounds)))
	rep.add("peak_heap_mb", median(heap), "MB", fmt.Sprintf("median of %d rounds", len(rounds)))
	return rep, nil
}

func completedPerSecond(a *armResult) float64 {
	return float64(a.drv.attempted-a.drv.errors-a.drv.shed) / a.elapsed.Seconds()
}

// serviceTimeRatio is specbench's service-time ratio: observed demand
// latency over what it would have been had every speculative hit been a
// miss of mean miss latency.
func serviceTimeRatio(a *armResult) float64 {
	if len(a.drv.missNs) == 0 {
		return 1
	}
	var missSum int64
	for _, v := range a.drv.missNs {
		missSum += v
	}
	meanMiss := float64(missSum) / float64(len(a.drv.missNs))
	observed := float64(a.drv.sumNs)
	return observed / (observed + float64(a.counts.SpecHits)*meanMiss)
}

// percentiles collects each round's exact median and p99 of raw
// latency samples.
type percentiles struct {
	p50, p99 []float64
	n        int
}

func (p *percentiles) add(ns []int64) {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p.p50 = append(p.p50, quantile(s, 0.50))
	p.p99 = append(p.p99, quantile(s, 0.99))
	p.n += len(s)
}

func (p *percentiles) report(rep *report, prefix string) {
	note := fmt.Sprintf("median of %d rounds, n=%d", len(p.p50), p.n)
	rep.add(prefix+"_p50_ms", median(p.p50)/1e6, "ms", note)
	rep.add(prefix+"_p99_ms", median(p.p99)/1e6, "ms", note)
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func sortedQuantile(ns []int64, q float64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, q)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b int64) float64 {
	if b <= 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// measureTraced runs one untraced and one traced round and reports the
// per-layer metrics: span-derived ones from the traced round; set-up,
// runtime and pacer ones from the untraced round, which tracing does not
// perturb. The deterministic counts must agree between the two rounds.
func measureTraced(w *workload, seed int64, out string) (*report, error) {
	plain, err := runRound(w, seed, false, out)
	if err != nil {
		return nil, err
	}
	traced, err := runRound(w, seed, true, out)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.check([]round{plain, traced})
	if plain.spec.counts != traced.spec.counts || plain.base.counts != traced.base.counts {
		rep.problems = append(rep.problems, "deterministic counts differ between the untraced and the traced run")
	}
	for _, arm := range []struct {
		name string
		u, t *armResult
	}{{"spec", plain.spec, traced.spec}, {"base", plain.base, traced.base}} {
		addLayers(rep, arm.name, arm.u, arm.t)
	}
	return rep, nil
}

// layerNotes says which end-to-end metric each per-layer metric should
// move, and on which workload.
var layerNotes = map[string]string{
	"workload.build_s":          "setup_s, all workloads",
	"warmup.replay_s":           "setup_s, all workloads",
	"engine.freeze_ms":          "setup_s, all workloads",
	"client.hit.count":          "deterministic; server_load_ratio",
	"client.miss.count":         "deterministic; byte_miss_ratio",
	"client.miss.p50_us":        "*_miss_p50_ms, all workloads",
	"client.miss.p99_us":        "*_miss_p99_ms, all workloads",
	"client.self_s":             "spec_rps and spec_miss_p50_ms on media-push; base_* barely on dept-hints",
	"transport.demand.count":    "deterministic; server_load_ratio",
	"transport.prefetch.count":  "deterministic; server_load_ratio and bandwidth_ratio on dept-hints",
	"transport.mb":              "deterministic; bandwidth_ratio",
	"transport.self_s":          "spec_rps and spec_alloc_kb_per_req on media-push",
	"server.count":              "deterministic; server_load_ratio",
	"server.self_s":             "spec_miss_p50_ms and spec_rps on dept-hints",
	"server.p50_us":             "spec_miss_p50_ms on dept-hints",
	"server.p99_us":             "spec_miss_p99_ms on dept-hints",
	"server.bundle.count":       "deterministic; media-push bundles",
	"server.push.count":         "deterministic; bandwidth_ratio on media-push",
	"server.hint.count":         "deterministic; dept-hints prefetches",
	"store.content.count":       "deterministic",
	"store.content.mb":          "deterministic",
	"store.content.busy_s":      "spec_miss_p99_ms on media-push; none on dept-hints",
	"store.content.p99_us":      "spec_miss_p99_ms on media-push; none on dept-hints",
	"engine.decide_ns":          "small share of server.self_s on dept-hints",
	"engine.refresh.count":      "deterministic; non-zero on dept-live only",
	"engine.pairs":              "deterministic",
	"engine.snapshots_rejected": "deterministic; dept-live",
	"engine.refresh_stall_ms":   "spec_miss_p99_ms on dept-live",
	"checkpoint.saved.count":    "deterministic; spec_miss_p99_ms on dept-live",
	"attrib.delivered_mb":       "deterministic; bandwidth_ratio, all workloads",
	"attrib.consumed_frac":      "deterministic; bandwidth_ratio, all workloads",
	"runtime.alloc_mb":          "spec_alloc_kb_per_req, most on media-push",
	"runtime.gc.count":          "spec_rps, most on media-push",
	"runtime.gc_cpu_frac":       "spec_rps, most on media-push",
	"driver.late_p99_ms":        "pacer health on dept-live; 0 in closed loop",
	"driver.queue_wait_p99_ms":  "spec_miss_p99_ms on dept-live; 0 in closed loop",
	"trace.overhead_frac":       "none: cost of the traced run",
}

func addLayers(rep *report, arm string, u, t *armResult) {
	add := func(name string, v float64, unit string) {
		rep.add(arm+"."+name, v, unit, layerNotes[name])
	}
	cl, tp, sv, sto := t.layers[layerClient], t.layers[layerTransport], t.layers[layerServer], t.layers[layerStore]
	sortNs := func(v []int64) []int64 {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return v
	}
	sortNs(cl.plainNs)
	sortNs(sv.durNs)
	sortNs(sto.durNs)
	c := t.counts

	add("workload.build_s", u.setup.build.Seconds(), "s")
	add("warmup.replay_s", u.setup.warmup.Seconds(), "s")
	add("engine.freeze_ms", float64(u.setup.freeze)/1e6, "ms")
	add("client.hit.count", float64(cl.flagged), "count")
	add("client.miss.count", float64(cl.count-cl.flagged), "count")
	add("client.miss.p50_us", quantile(cl.plainNs, 0.50)/1e3, "us")
	add("client.miss.p99_us", quantile(cl.plainNs, 0.99)/1e3, "us")
	add("client.self_s", float64(cl.selfNs)/1e9, "s")
	add("transport.demand.count", float64(tp.count-tp.flagged), "count")
	add("transport.prefetch.count", float64(tp.flagged), "count")
	add("transport.mb", float64(tp.bytes)/(1<<20), "MB")
	add("transport.self_s", float64(tp.selfNs)/1e9, "s")
	add("server.count", float64(sv.count), "count")
	add("server.self_s", float64(sv.selfNs)/1e9, "s")
	add("server.p50_us", quantile(sv.durNs, 0.50)/1e3, "us")
	add("server.p99_us", quantile(sv.durNs, 0.99)/1e3, "us")
	add("server.bundle.count", float64(c.Bundles), "count")
	add("server.push.count", float64(c.DocsPushed), "count")
	add("server.hint.count", float64(c.Hints), "count")
	add("store.content.count", float64(sto.count), "count")
	add("store.content.mb", float64(sto.bytes)/(1<<20), "MB")
	add("store.content.busy_s", float64(sto.busyNs)/1e9, "s")
	add("store.content.p99_us", quantile(sto.durNs, 0.99)/1e3, "us")
	add("engine.decide_ns", t.decideNs, "ns")
	add("engine.refresh.count", float64(c.Refreshes), "count")
	add("engine.pairs", float64(t.pairs), "count")
	add("engine.snapshots_rejected", float64(c.SnapshotsRejected), "count")
	add("engine.refresh_stall_ms", float64(t.drv.stallNs)/1e6, "ms")
	add("checkpoint.saved.count", float64(c.CheckpointsSaved), "count")
	add("attrib.delivered_mb", float64(c.AttribDeliveredBytes)/(1<<20), "MB")
	consumed := 0.0
	if c.AttribDeliveredBytes > 0 {
		consumed = float64(c.AttribConsumedBytes) / float64(c.AttribDeliveredBytes)
	}
	add("attrib.consumed_frac", consumed, "frac")
	add("runtime.alloc_mb", float64(u.rt.allocBytes)/(1<<20), "MB")
	add("runtime.gc.count", float64(u.rt.gcCycles), "count")
	gcFrac := 0.0
	if u.rt.totalCPU > 0 {
		gcFrac = u.rt.gcCPU / u.rt.totalCPU
	}
	add("runtime.gc_cpu_frac", gcFrac, "frac")
	add("driver.late_p99_ms", sortedQuantile(u.drv.lateNs, 0.99)/1e6, "ms")
	add("driver.queue_wait_p99_ms", sortedQuantile(u.drv.waitNs, 0.99)/1e6, "ms")
	overhead := 0.0
	if u.drv.serviceNs > 0 && u.drv.attempted > 0 && t.drv.attempted > 0 {
		overhead = (float64(t.drv.serviceNs)/float64(t.drv.attempted))/
			(float64(u.drv.serviceNs)/float64(u.drv.attempted)) - 1
	}
	add("trace.overhead_frac", overhead, "frac")

	if sv.count != c.ServerRequests || tp.count != sv.count || sto.count == 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%s: %d transport, %d server and %d store spans for %d server requests",
			arm, tp.count, sv.count, sto.count, c.ServerRequests))
	}
	if cl.count != c.Requests {
		rep.problems = append(rep.problems, fmt.Sprintf("%s: %d client spans for %d demand requests", arm, cl.count, c.Requests))
	}
}

// print writes one "name value unit" line per metric, then the JSON
// result line; output-check failures go to stderr.
func (r *report) print(stdout, stderr io.Writer) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("%s is %v", m.name, v))
			v = 0
		}
		line := fmt.Sprintf("%s %.6g %s", m.name, v, m.unit)
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Fprintln(stdout, line)
		ms[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "perfbench: output check failed:", p)
	}
	b, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, ms})
	fmt.Fprintln(stdout, string(b))
}
