package main

import (
	"bytes"
	"strings"
	"testing"

	"specweb/internal/loadgen"
)

// loadgenCounts projects the benchmark's counts onto loadgen's Counts.
func loadgenCounts(c counts) loadgen.Counts {
	return loadgen.Counts{
		Requests:      c.Requests,
		WarmupErrors:  c.WarmupErrors,
		CacheHits:     c.CacheHits,
		SpecHits:      c.SpecHits,
		Pushed:        c.Pushed,
		Prefetched:    c.Prefetched,
		Errors:        c.Errors,
		Shed:          c.Shed,
		BytesIn:       c.BytesIn,
		DemandBytes:   c.DemandBytes,
		MissBytes:     c.MissBytes,
		SpecHitBytes:  c.SpecHitBytes,
		BaselineBytes: c.baselineBytes(),
	}
}

// TestCountsMatchRunReport holds the benchmark's driver to the repo's
// conformance contract: at the workload's default seed, the untraced and
// the traced run both reproduce loadgen.RunReport's deterministic counts
// and attribution totals for each arm.
func TestCountsMatchRunReport(t *testing.T) {
	for _, name := range []string{"media-push", "dept-hints"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "dept-hints" {
				t.Skip("largest workload")
			}
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := loadgen.RunReport(loadgen.Config{
				Workload:           w.cfg,
				Workers:            w.drivers,
				WarmupFraction:     w.warmup,
				Speculate:          true,
				Mode:               w.mode,
				MaxPush:            maxPush,
				PrefetchThreshold:  w.prefetch,
				SessionGapRequests: sessionGapRequests,
			}, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				rd, err := runRound(w, w.cfg.Seed, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range append(rd.spec.problems, rd.base.problems...) {
					t.Errorf("traced=%v: %s", traced, p)
				}
				if got, want := loadgenCounts(rd.spec.counts), rep.Spec.Counts; got != want {
					t.Errorf("traced=%v spec arm:\n got %+v\nwant %+v", traced, got, want)
				}
				if got, want := loadgenCounts(rd.base.counts), rep.Baseline.Counts; got != want {
					t.Errorf("traced=%v base arm:\n got %+v\nwant %+v", traced, got, want)
				}
				c, at := rd.spec.counts, rep.Spec.Attrib.Totals
				if c.AttribDeliveries != at.Deliveries || c.AttribDeliveredBytes != at.DeliveredBytes ||
					c.AttribConsumedBytes != at.ConsumedBytes || c.AttribWastedBytes != at.WastedBytes {
					t.Errorf("traced=%v attrib totals %+v, RunReport %+v", traced, c, at)
				}
			}
		})
	}
}

// TestLiveTracedMatchesUntraced runs the open-loop workload whose engine
// refreshes during measurement: its counts must still repeat exactly
// between the untraced and the traced run, and every output check pass.
func TestLiveTracedMatchesUntraced(t *testing.T) {
	w, err := workloadByName("dept-live")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measureTraced(w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.problems {
		t.Error(p)
	}
	var refreshes float64
	for _, m := range rep.metrics {
		if m.name == "spec.engine.refresh.count" {
			refreshes = m.value
		}
	}
	if refreshes == 0 {
		t.Error("dept-live measured no engine refresh")
	}
}

// TestExpectCatchesWrongBodies checks the output check itself.
func TestExpectCatchesWrongBodies(t *testing.T) {
	w, err := workloadByName("dept-live")
	if err != nil {
		t.Fatal(err)
	}
	site, _, err := buildWorkload(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc := site.Doc(0)
	for _, full := range []bool{false, true} {
		e := newExpect(site, full)
		good := append([]byte(nil), e.head[0]...)
		good = append(good, make([]byte, e.size[0]-len(good))...)
		if full {
			good = e.full[0]
		} else if err := e.check(doc.Path, good); err != nil {
			t.Errorf("header-only check rejected a body with the right size and header: %v", err)
		}
		if full {
			if err := e.check(doc.Path, good); err != nil {
				t.Errorf("full check rejected the right body: %v", err)
			}
		}
		bad := append([]byte(nil), good...)
		bad[0] ^= 1
		if err := e.check(doc.Path, bad); err == nil {
			t.Errorf("full=%v: corrupted header accepted", full)
		}
		if err := e.check(doc.Path, good[:len(good)-1]); err == nil {
			t.Errorf("full=%v: truncated body accepted", full)
		}
		if full {
			bad = append([]byte(nil), good...)
			bad[len(bad)-1] ^= 1
			if err := e.check(doc.Path, bad); err == nil {
				t.Error("full check accepted a corrupted tail")
			}
		}
	}
}

// TestRunRejectsBadArguments covers the command's argument checks.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), "correct") {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// TestCheckPacerLateness checks that the pacer's lateness bound applies
// to the p99 over all of a run's arms: one late request, as a host
// preemption makes, passes; a pacer late on a few percent fails.
func TestCheckPacerLateness(t *testing.T) {
	arm := func(late int) *armResult {
		ns := make([]int64, 100)
		for i := 0; i < late; i++ {
			ns[i] = int64(2 * maxLateP99)
		}
		return &armResult{drv: driverResult{attempted: 100, lateNs: ns}}
	}
	for _, tc := range []struct {
		late int
		ok   bool
	}{{0, true}, {1, true}, {3, false}} {
		rep := &report{}
		rep.check([]round{{spec: arm(tc.late), base: arm(0)}})
		if got := len(rep.problems) == 0; got != tc.ok {
			t.Errorf("%d late requests of 200: passed %v, want %v (%v)", tc.late, got, tc.ok, rep.problems)
		}
	}
}
