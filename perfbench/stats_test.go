package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"caaction"
	"caaction/load"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	samples := make([]time.Duration, 999)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Microsecond
	}
	d := summarize(samples)
	if d.p99OK() {
		t.Errorf("999 samples reported as supporting a p99: %v", d)
	}
	d = summarize(append(samples, time.Second))
	if !d.p99OK() || d.N != 1000 {
		t.Errorf("1000 samples: %v, want a supported p99", d)
	}
	if d.P50 != 500*time.Microsecond || d.P99 != 990*time.Microsecond {
		t.Errorf("nearest-rank p50/p99 = %s/%s, want 500µs/990µs", d.P50, d.P99)
	}
}

func TestQuartilesOfParts(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if bestTime(xs) != 2 || bestRate(xs) != 4 || median(xs) != 3 {
		t.Errorf("best quartiles of 1..5 = %g/%g, median %g; want 2/4, 3", bestTime(xs), bestRate(xs), median(xs))
	}
	if got := quantileOf([]float64{1, 2}, 0.25); got != 1.25 {
		t.Errorf("lower quartile of {1,2} = %g, want 1.25", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 40},
		{Start: 30, End: 60},  // overlaps the first
		{Start: 80, End: 120}, // runs past the parent
	}
	// Covered: [10,60] and [80,100] = 70.
	if got := selfTime(parent, children); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime with no children = %d, want 100", got)
	}
}

func TestAttributeChargesInnermostSpanAndKeepsUnattributed(t *testing.T) {
	spans := []span{
		{Name: "action", Layer: layerUnattributed, Start: 0, End: 100, Parent: -1},
		{Name: "facade.start", Layer: layerFacade, Start: 0, End: 20},
		{Name: "body", Layer: layerProgram, Start: 10, End: 50},
		{Name: "body", Layer: layerProgram, Start: 12, End: 45}, // a concurrent role
		{Name: "resolve.raise", Layer: layerResolve, Start: 30, End: 40},
	}
	got := attribute(spans)
	want := map[string]int64{layerFacade: 10, layerProgram: 30, layerResolve: 10, layerUnattributed: 50}
	var total int64
	for k, v := range got {
		total += v
		if v != want[k] {
			t.Errorf("layer %s: %d, want %d", k, v, want[k])
		}
	}
	if total != 100 {
		t.Errorf("layers add up to %d, want the root's 100", total)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 4}
	if r.Value() != 0.75 {
		t.Errorf("Value = %g, want 0.75", r.Value())
	}
	if s := r.String(); !strings.Contains(s, "3 of 4") {
		t.Errorf("String = %q, want the base 3 of 4 in it", s)
	}
	if (ratio{}).Value() != 0 {
		t.Errorf("empty base should read 0")
	}
}

// A dispatcher stalled for 50ms releases the held-back arrivals late; timed
// from the send each looks 1ms long, timed from the due time each carries
// the stall.
func TestDueTimeLatencyUnderStalledDispatcher(t *testing.T) {
	origin := time.Unix(0, 0)
	const stall = 50 * time.Millisecond
	var arrivals []arrival
	for i := 0; i < 100; i++ {
		due := origin.Add(time.Duration(i) * time.Millisecond)
		sent := due
		if sent.Before(origin.Add(stall)) {
			sent = origin.Add(stall)
		}
		arrivals = append(arrivals, arrival{Due: due, Sent: sent, Done: sent.Add(time.Millisecond)})
	}
	if got := arrivals[0].dueLatency(); got != 51*time.Millisecond {
		t.Errorf("first arrival due latency %s, want 51ms", got)
	}
	if got := arrivals[0].lateness(); got != stall {
		t.Errorf("first arrival lateness %s, want %s", got, stall)
	}
	if got := arrivals[49].dueLatency(); got != 2*time.Millisecond {
		t.Errorf("arrival 49 due latency %s, want 2ms", got)
	}
	if got := arrivals[60].lateness(); got != 0 {
		t.Errorf("arrival 60 after the stall: lateness %s, want 0", got)
	}
	res := judgeStep(arrivals, 10*time.Millisecond)
	if res.Met || res.Misses.Num != 41 {
		t.Errorf("stalled step: %+v, want 41 misses (arrivals 0..40) and not met", res)
	}
	if !judgeStep(arrivals, 60*time.Millisecond).Met {
		t.Errorf("a 60ms limit covers the stall; want met")
	}
}

func TestBacklogDetection(t *testing.T) {
	steady := make([]int, 400)
	for i := range steady {
		steady[i] = 3 + i%3
	}
	if backlogGrowing(steady) {
		t.Errorf("steady in-flight population reported as a growing backlog")
	}
	growing := make([]int, 400)
	for i := range growing {
		growing[i] = i / 10
	}
	if !backlogGrowing(growing) {
		t.Errorf("linearly growing population not detected")
	}
	if backlogGrowing([]int{0, 0, 1, 2, 1, 2, 2, 2}) {
		t.Errorf("a population of one or two counted as growth")
	}

	// A growing backlog fails the step even when every arrival is fast.
	origin := time.Unix(0, 0)
	var arrivals []arrival
	for i, n := range growing {
		due := origin.Add(time.Duration(i) * time.Millisecond)
		arrivals = append(arrivals, arrival{Due: due, Sent: due, Done: due.Add(time.Millisecond), InFlight: n})
	}
	if res := judgeStep(arrivals, time.Second); res.Met || !res.Backlog {
		t.Errorf("growing backlog step: %+v, want backlog and not met", res)
	}
	// Refused arrivals count as misses: 2% refused puts the p99 past any limit.
	for i := range arrivals {
		arrivals[i].InFlight = 1
		arrivals[i].Refused = i%50 == 0
	}
	if res := judgeStep(arrivals, time.Second); res.Met || res.Misses.Num != 8 {
		t.Errorf("2%% refused: %+v, want 8 misses and not met", res)
	}
}

// BENCHMARK.json names exactly the metrics the command prints, with the
// same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// The cluster driver checks storm rounds from many goroutines against one
// programs set, so its cover cache must take concurrent misses; run with
// -race.
func TestCheckStormConcurrently(t *testing.T) {
	const roles = 3
	p, err := newPrograms([]string{load.KindStorm}, roles, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := p.specs[load.KindStorm].Graph
	var sets [][]string
	for mask := 1; mask < 1<<roles; mask++ {
		var raised []string
		for i := 0; i < roles; i++ {
			if mask&(1<<i) != 0 {
				raised = append(raised, fmt.Sprintf("e%d", i+1))
			}
		}
		sets = append(sets, raised)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, raised := range sets {
				excs := make([]caaction.Exception, len(raised))
				for i, id := range raised {
					excs[i] = caaction.Exception(id)
				}
				cover, err := g.Resolve(excs...)
				if err != nil {
					t.Error(err)
					return
				}
				ds := make([]load.Decision, roles)
				for i := range ds {
					ds[i] = load.Decision{Role: load.ThreadName(i), Resolved: string(cover), Raised: raised}
				}
				if err := p.checkStorm(ds, roles); err != nil {
					t.Error(err)
				}
				for i := range ds {
					ds[i].Resolved = "not-the-cover"
				}
				if p.checkStorm(ds, roles) == nil {
					t.Errorf("raised %v: a wrong cover passed", raised)
				}
			}
		}()
	}
	wg.Wait()
}

// The histogram's percentiles stay within a bucket (1.6%) of the exact
// nearest-rank ones, take concurrent adds, and keep their sample count.
func TestHistMatchesExactPercentiles(t *testing.T) {
	var samples []time.Duration
	for i := 0; i < 5000; i++ {
		// 20µs to about 2ms, skewed like a latency sample
		samples = append(samples, 20*time.Microsecond+time.Duration(i*i/12)*time.Nanosecond)
	}
	h := &hist{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(samples); i += 4 {
				h.add(samples[i])
			}
		}()
	}
	wg.Wait()
	exact, got := summarize(samples), h.dist()
	if got.N != exact.N || got.Tail != exact.Tail {
		t.Fatalf("hist has %d samples (tail p%g), want %d (p%g)", got.N, 100*got.Tail, exact.N, 100*exact.Tail)
	}
	for _, c := range []struct {
		name       string
		got, exact time.Duration
	}{{"p50", got.P50, exact.P50}, {"p90", got.P90, exact.P90}, {"p99", got.P99, exact.P99}} {
		if diff := math.Abs(float64(c.got-c.exact)) / float64(c.exact); diff > 1.0/histSub {
			t.Errorf("%s = %s, exact %s: off by %.2f%%", c.name, c.got, c.exact, 100*diff)
		}
	}
	for _, d := range []time.Duration{0, 1, 63, 64, 127, 128, 1000, time.Millisecond, time.Second, time.Minute} {
		lo, hi := histBounds(histIndex(d))
		if d < lo || d >= hi {
			t.Errorf("%v falls in bucket [%v, %v)", d, lo, hi)
		}
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Errorf("an empty histogram should read 0")
	}
}
