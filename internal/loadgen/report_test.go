package loadgen

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func sampleReport() *Report {
	return &Report{
		Schema: ReportSchema,
		Config: ConfigInfo{Profile: "tiny", Seed: 7, Workers: 4, Mode: "hybrid"},
		Workload: WorkloadInfo{
			Pages: 20, Clients: 10, Trace: 300, Warmup: 90, Measured: 210,
		},
		Spec: &Result{
			Counts: Counts{Requests: 210, CacheHits: 60, SpecHits: 30,
				BytesIn: 1 << 20, MissBytes: 700 << 10, SpecHitBytes: 200 << 10,
				BaselineBytes: 900 << 10},
			Ratios: Ratios{Bandwidth: 1.16, ServerLoad: 0.85, ByteMissRate: 0.78},
			Timing: &Timing{DurationSeconds: 0.5, Throughput: 420,
				Latency: Quantiles{P50: 0.2, P99: 1.5}, ServiceTime: 0.8},
		},
		Baseline: &Result{
			Counts: Counts{Requests: 210, CacheHits: 55},
			Ratios: Ratios{Bandwidth: 1, ServerLoad: 1, ByteMissRate: 1},
			Timing: &Timing{DurationSeconds: 0.6, Throughput: 350,
				Latency: Quantiles{P50: 0.3, P99: 2.0}},
		},
		Relative: &Relative{P99Ratio: 0.75, ThroughputRatio: 1.2},
	}
}

func TestDeterministicJSONStripsTiming(t *testing.T) {
	b, err := sampleReport().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, banned := range []string{"timing", "throughput_rps", "p99_ratio", "duration"} {
		if strings.Contains(s, banned) {
			t.Errorf("deterministic JSON contains wall-clock field %q", banned)
		}
	}
	if !strings.Contains(s, "\"requests\": 210") || !strings.Contains(s, "\"bandwidth\": 1.16") {
		t.Error("deterministic JSON lost counts or ratios")
	}
	// Stripping must not mutate the original.
	if sampleReport().Spec.Timing == nil {
		t.Fatal("sample construction broken")
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("deterministic JSON does not round-trip: %v", err)
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	if v := Compare(sampleReport(), sampleReport(), CompareOptions{}); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}
}

func TestCompareCatchesCountDrift(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Counts.Requests = 260 // +24%
	v := Compare(sampleReport(), cur, CompareOptions{})
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "requests") {
		t.Fatalf("24%% request drift not flagged: %v", v)
	}
}

func TestCompareCatchesNewErrors(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Counts.Errors = 3
	v := Compare(sampleReport(), cur, CompareOptions{})
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "errors") {
		t.Fatalf("new errors not flagged: %v", v)
	}
}

func TestCompareCatchesRatioDrift(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Ratios.ServerLoad = 1.05 // was 0.85: speculation stopped helping
	v := Compare(sampleReport(), cur, CompareOptions{})
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "server_load") {
		t.Fatalf("server_load drift not flagged: %v", v)
	}
}

func TestCompareCatchesRelativeP99Regression(t *testing.T) {
	cur := sampleReport()
	cur.Relative.P99Ratio = 2.5
	cur.Spec.Timing.Latency.P99 = 5.0 // 3ms above the baseline arm: beyond slack
	v := Compare(sampleReport(), cur, CompareOptions{})
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "p99_ratio") {
		t.Fatalf("relative p99 regression not flagged: %v", v)
	}
}

func TestCompareLatencySlackForgivesMicroNoise(t *testing.T) {
	cur := sampleReport()
	// Ratio doubled but the absolute gap is 0.3ms — inside the slack.
	cur.Relative.P99Ratio = 1.6
	cur.Spec.Timing.Latency.P99 = 2.3
	if v := Compare(sampleReport(), cur, CompareOptions{}); len(v) != 0 {
		t.Fatalf("sub-slack latency noise flagged: %v", v)
	}
}

func TestCompareCatchesThroughputRatioRegression(t *testing.T) {
	cur := sampleReport()
	cur.Relative.ThroughputRatio = 0.9 // was 1.2
	v := Compare(sampleReport(), cur, CompareOptions{})
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "throughput_ratio") {
		t.Fatalf("throughput ratio regression not flagged: %v", v)
	}
}

func TestCompareAbsoluteMode(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Timing.Throughput = 100 // -76%
	if v := Compare(sampleReport(), cur, CompareOptions{}); len(v) != 0 {
		t.Fatalf("absolute throughput gated without Absolute: %v", v)
	}
	v := Compare(sampleReport(), cur, CompareOptions{Absolute: true})
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "throughput_rps") {
		t.Fatalf("absolute throughput regression not flagged: %v", v)
	}
}

// TestRatioFormulas checks the paper-ratio arithmetic on hand-built counts.
func TestRatioFormulas(t *testing.T) {
	c := Counts{
		Requests:     10,
		CacheHits:    4,
		SpecHits:     2,
		Prefetched:   1,
		Pushed:       2,
		BytesIn:      9000,
		SpecHitBytes: 2000,
		DemandBytes:  10000,
		MissBytes:    6000,
	}
	hist := NewHist()
	for _, ms := range []float64{1, 2, 3, 4, 10, 1} {
		hist.Observe(time.Duration(ms * float64(time.Millisecond)))
	}
	res := paperResult(c, hist, 19*time.Millisecond, 4, time.Second)
	// baseline bytes = 6000 + 2000 = 8000
	if res.Counts.BaselineBytes != 8000 {
		t.Fatalf("baseline bytes = %d, want 8000", res.Counts.BaselineBytes)
	}
	if got, want := res.Ratios.Bandwidth, 9000.0/8000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("bandwidth ratio = %g, want %g", got, want)
	}
	// server load: (10-4+1)/(10-4+2) = 7/8
	if got, want := res.Ratios.ServerLoad, 7.0/8.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("server load ratio = %g, want %g", got, want)
	}
	// byte miss rate: 6000/8000
	if got, want := res.Ratios.ByteMissRate, 0.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("byte miss rate ratio = %g, want %g", got, want)
	}
	// service time: sum(lat)=0.021; baseline = 0.021 + 2*(0.019/4)
	wantST := 0.021 / (0.021 + 2*0.019/4)
	if got := res.Timing.ServiceTime; math.Abs(got-wantST) > 1e-9 {
		t.Errorf("service time ratio = %g, want %g", got, wantST)
	}
	if lat := res.Timing.Latency; lat.Max != 10 {
		t.Errorf("max latency = %gms, want 10", lat.Max)
	}
	if lat := res.Timing.Latency; lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Errorf("implausible percentiles: %+v", lat)
	}
}

// TestRatioFormulasEmpty keeps the degenerate case neutral.
func TestRatioFormulasEmpty(t *testing.T) {
	res := paperResult(Counts{}, NewHist(), 0, 0, 0)
	if r := res.Ratios; r.Bandwidth != 1 || r.ServerLoad != 1 || r.ByteMissRate != 1 || res.Timing.ServiceTime != 1 {
		t.Errorf("empty run should yield neutral ratios, got %+v, service time %g", r, res.Timing.ServiceTime)
	}
}
