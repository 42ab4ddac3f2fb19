// Command perfbench is the repository's benchmark: one command that runs a
// workload on the real clock for a fixed time, checks that every output of
// the program is correct, and prints every metric by name with its unit.
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs an
// untraced reference and then a traced run, and prints the per-layer
// metrics, including each layer's self time and the share no span explains.
//
//	perfbench -workload mixed-closed -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check makes the
// command exit with status 1; a run that could not be set up exits with
// status 2 and prints no result. See README.md for the workloads and the
// per-layer to end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"caaction/load"
)

// endToEnd names the metrics an untraced run prints, with their units;
// BENCHMARK.json lists the same, in the same order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_mem_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"goodput", "1/s"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var inprocWorkloads = map[string]inprocWorkload{
	"mixed-closed": {name: "mixed-closed", roles: 3, mix: load.DefaultMix},
	"storm-wide":   {name: "storm-wide", roles: 5, mix: load.Mix{Storm: 1}},
	"durable-open": {name: "durable-open", roles: 3, mix: load.DefaultMix, durable: true},
}

const clusterWorkload = "cluster-chatter"

func main() {
	var (
		workload = flag.String("workload", "", "mixed-closed, storm-wide, durable-open or cluster-chatter")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 10, "measurement time in seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		workDir  = flag.String("work", ".bench_build/run", "directory for WAL files, node logs and trace files")
		canode   = flag.String("canode", ".bench_build/canode", "canode binary (cluster-chatter)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced == 1, *workDir, *canode); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(workload string, seed int64, seconds int, traced bool, workDir, canode string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if _, ok := inprocWorkloads[workload]; !ok && workload != clusterWorkload {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	env := stampEnvironment(workload, seed, seconds, traced, workDir)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	d := time.Duration(seconds) * time.Second
	var rep *report
	var err error
	if workload == clusterWorkload {
		rep, err = runCluster(seed, d, traced, workDir, canode)
	} else {
		rep, err = runInproc(inprocWorkloads[workload], seed, d, traced, workDir)
	}
	if err != nil {
		return err
	}
	res := result{
		Correct:   len(rep.failures) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue),
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		v, ok := rep.values[m.name]
		if !ok && !traced {
			return fmt.Errorf("internal: end-to-end metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for _, note := range rep.notes {
		fmt.Println(note)
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// report is one workload's measurement, ready to print.
type report struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	notes             []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// windowLatency records a run's p50 and p90 in milliseconds from the best
// quartile of its windows, each of which must support a p90, and its p99
// from the whole sample.
func (r *report) windowLatency(v map[string]float64, name string, ws []dist, whole dist) {
	r.latency(v, name, whole)
	if len(ws) == 0 {
		r.failures = append(r.failures, name+": no complete window")
		return
	}
	smallest := ws[0]
	var p50s, p90s []float64
	for _, d := range ws {
		p50s, p90s = append(p50s, ms(d.P50)), append(p90s, ms(d.P90))
		if d.N < smallest.N {
			smallest = d
		}
	}
	r.note("samples %s, the smallest of %d windows %s", name, len(ws), smallest)
	if !smallest.p90OK() {
		r.failures = append(r.failures, fmt.Sprintf("%s: a window of %d samples does not support a p90", name, smallest.N))
	}
	v["latency_p50_ms"], v["latency_p90_ms"] = bestTime(p50s), bestTime(p90s)
}

// latency records a sample's p50, p90 and p99 in milliseconds; the sample
// must support its p99.
func (r *report) latency(v map[string]float64, name string, d dist) {
	r.note("samples %s over the whole run %s", name, d)
	if !d.p99OK() {
		r.failures = append(r.failures, fmt.Sprintf("%s: %d samples do not support a p99", name, d.N))
	}
	v["latency_p50_ms"], v["latency_p90_ms"], v["latency_p99_ms"] = ms(d.P50), ms(d.P90), ms(d.P99)
}

// gcPercent paces the collector for in-process runs, as the repository's
// load harness does. At the default the collector runs about fifty times a
// second on this small heap, its stop-the-world phases set the p99, and
// they stretch whenever the host is busy: in paired 10 s runs on a 2-CPU
// Xeon VM whose host was busy, the p99 of mixed-closed read 0.16–0.28 ms at
// 400 and 0.38–0.74 ms at 100.
const gcPercent = 400

func runInproc(w inprocWorkload, seed int64, d time.Duration, traced bool, workDir string) (*report, error) {
	debug.SetGCPercent(gcPercent)
	r := newRunner(w, seed, workDir)
	s, setup, err := r.setup()
	if err != nil {
		return nil, err
	}
	if traced {
		d /= 2
	}
	run, err := r.measure(s, d, nil)
	if cerr := r.discard(s); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep := &report{values: make(map[string]float64)}
	rep.attempted, rep.failed, rep.failures = run.attempted, run.failed, run.failures
	checkResolutionMessages(w, run, rep)
	e2e := inprocEndToEnd(w, run, setup, rep)
	if !traced {
		rep.values = e2e
		return rep, nil
	}

	tr := newTracer(w.roles)
	ts, err := buildSystem(w, r.workers(), r.nextWALPath(), tr)
	if err != nil {
		return nil, err
	}
	trun, err := r.measure(ts, d, tr)
	var walBytes int64
	if err == nil && ts.walPath != "" {
		if fi, serr := os.Stat(ts.walPath); serr == nil {
			walBytes = fi.Size()
		}
	}
	if cerr := r.discard(ts); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.attempted += trun.attempted
	rep.failed += trun.failed
	rep.failures = append(rep.failures, trun.failures...)
	te2e := inprocEndToEnd(w, trun, 0, &report{})
	inprocPerLayer(w, run, trun, tr, rep)
	rep.values["wal.file_bytes_end"] = float64(walBytes)
	for _, k := range []string{"latency_p99_ms", "rejected_ratio", "max_rate_within_slo",
		"ref.latency_p50_ms", "ref.latency_p90_ms", "ref.latency_p99_ms"} {
		rep.values[k] = e2e[k]
	}
	base, with := e2e["throughput"], te2e["throughput"]
	if w.durable {
		base, with = e2e["goodput"], te2e["goodput"]
	}
	rep.values["trace.overhead_ratio"] = ratio{Num: with, Den: base}.Value()
	rep.note("trace overhead: traced/untraced %s", ratio{Num: with, Den: base})
	spans := filepath.Join(workDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
	if err := tr.writeSpans(spans); err != nil {
		return nil, err
	}
	rep.note("spans written to %s (%d actions kept of %d traced)", spans, len(tr.kept), tr.actions)
	return rep, nil
}

// resolutionMsgs is the (N+1)(N−1) count of §3.3.3 for one coordinated
// resolution round among n threads.
func resolutionMsgs(n int) int64 { return int64((n + 1) * (n - 1)) }

// checkResolutionMessages is the storm-wide gate: every resolution round
// must cost exactly (N+1)(N−1) Exception, Suspended and Commit messages.
func checkResolutionMessages(w inprocWorkload, run *inprocRun, rep *report) {
	msgs := run.counters["msg.Exception"] + run.counters["msg.Suspended"] + run.counters["msg.Commit"]
	rounds := run.counters["action.rounds"] // one per thread per round
	n := int64(w.roles)
	rep.note("resolution messages %d over %d thread-rounds (%d threads)", msgs, rounds, n)
	if w.mix != (load.Mix{Storm: 1}) {
		return
	}
	if rounds == 0 || msgs*n != resolutionMsgs(w.roles)*rounds {
		rep.failed++
		rep.failures = append(rep.failures, fmt.Sprintf("storm: %d resolution messages over %d rounds, want (N+1)(N-1) = %d per round",
			msgs, rounds/n, resolutionMsgs(w.roles)))
	}
}

func inprocEndToEnd(w inprocWorkload, run *inprocRun, setup time.Duration, rep *report) map[string]float64 {
	v := map[string]float64{
		"setup_s":     setup.Seconds(),
		"peak_mem_mb": float64(run.peakRSS) / (1 << 20),
	}
	if w.durable {
		// The ladder's later steps admit what the program sustains, and
		// the WAL keeps every action it has seen, so the peak at the end of
		// the run grows with throughput. The reference step's work is fixed
		// by its schedule.
		v["peak_mem_mb"] = float64(run.refPeakRSS) / (1 << 20)
	}
	okr := ratio{Num: float64(run.attempted - run.failed), Den: float64(run.attempted)}
	v["ok_ratio"] = okr.Value()
	rep.note("ok_ratio %s", okr)
	if !w.durable {
		ws := run.windowed()
		var thr, good, cpu []float64
		lats := make([]dist, 0, len(ws))
		for _, win := range ws {
			thr = append(thr, float64(win.finished)/windowWidth.Seconds())
			good = append(good, float64(win.ok)/windowWidth.Seconds())
			cpu = append(cpu, us(win.cpuPerOp))
			lats = append(lats, win.lat)
		}
		v["throughput"], v["goodput"] = bestRate(thr), bestRate(good)
		// The best quartile assumes the run's speed does not drift; the
		// two halves' medians show whether it did.
		rep.note("actions/s, median window: first half %.0f, second half %.0f", median(thr[:len(thr)/2]), median(thr[len(thr)/2:]))
		rep.windowLatency(v, fmt.Sprintf("latency in windows of %s", windowWidth), lats, run.all.dist())
		v["cpu_us_per_op"] = bestTime(cpu)
		return v
	}
	v["throughput"] = float64(run.finished) / run.elapsed.Seconds()
	v["cpu_us_per_op"] = us(run.cpu) / float64(max(run.finished, 1))
	var maxRate float64
	for _, st := range run.steps {
		if st.rate == refRate {
			ref := summarize(st.lat)
			rep.note("samples latency from due time at %g/s %s", st.rate, ref)
			v["ref.latency_p50_ms"], v["ref.latency_p90_ms"], v["ref.latency_p99_ms"] = ms(ref.P50), ms(ref.P90), ms(ref.P99)
		}
		if st.slo.Met && st.rate > maxRate {
			maxRate = st.rate
		}
		p99 := st.slo.P99.String()
		if st.slo.P99 == time.Duration(math.MaxInt64) {
			p99 = "a miss"
		}
		rep.note("step %6g/s offered %d admitted %d refused %d ok %d p99(due, misses counted) %s misses %s backlog %v met %v",
			st.rate, st.offered, st.admitted, st.refused, st.ok, p99, st.slo.Misses, st.slo.Backlog, st.slo.Met)
	}
	top := run.steps[len(run.steps)-1]
	v["goodput"] = float64(top.ok) / top.wall.Seconds()
	// At the top rate the admission budget keeps the in-flight population
	// full, and an admitted arrival's time from its due time is how long
	// the program takes to work through the budget ahead of it, compaction
	// stalls included. At the reference rate it is mostly the disk's fsync
	// time, which on a disk shared with other machines did not repeat from
	// run to run; those figures are per-layer (ref.latency_*).
	rep.latency(v, fmt.Sprintf("latency from due time at %g/s", top.rate), summarize(top.lat))
	rej := ratio{Num: float64(top.refused), Den: float64(top.offered)}
	v["rejected_ratio"] = rej.Value()
	rep.note("rejected at %g/s: %s", top.rate, rej)
	v["max_rate_within_slo"] = maxRate
	return v
}

func p50us(samples []time.Duration) float64 { return us(summarize(samples).P50) }
func p99us(samples []time.Duration) float64 { return us(summarize(samples).P99) }

func inprocPerLayer(w inprocWorkload, ref, trun *inprocRun, tr *tracer, rep *report) {
	v := rep.values
	if len(ref.late) > 0 {
		v["gen.late_p99_us"] = p99us(ref.late)
	}
	var offered, refused float64
	for _, st := range ref.steps {
		offered += float64(st.offered)
		refused += float64(st.refused)
	}
	if offered > 0 {
		rr := ratio{Num: refused, Den: offered}
		v["facade.rejected_per_offered"] = rr.Value()
		rep.note("facade.rejected_per_offered %s", rr)
	}
	lat := tr.lat
	v["facade.start_us.p50"] = p50us(lat["facade.start"])
	v["facade.start_us.p99"] = p99us(lat["facade.start"])
	v["facade.entry_us.p50"] = p50us(lat["facade.entry"])
	v["core.exit_us.p50"] = p50us(lat["core.exit"])
	v["core.exit_us.p99"] = p99us(lat["core.exit"])
	v["core.abort_us.p50"] = p50us(lat["core.abort"])
	v["core.abort_us.p99"] = p99us(lat["core.abort"])
	for _, k := range []string{load.KindCommit, load.KindSignal, load.KindAbort, load.KindStorm} {
		v["kind."+k+".p50_us"] = p50us(lat["kind."+k])
		v["kind."+k+".p99_us"] = p99us(lat["kind."+k])
		if n := len(lat["kind."+k]); n > 0 {
			rep.note("samples kind.%s %s", k, summarize(lat["kind."+k]))
		}
	}
	v["resolve.decide_us.p50"] = p50us(lat["resolve.decide"])
	v["resolve.decide_us.p99"] = p99us(lat["resolve.decide"])

	// Exact counts come from the untraced reference run's Metrics.
	c := ref.counters
	acts := float64(max(ref.finished, 1))
	for _, k := range []string{"rounds", "raises", "handler_runs", "undos"} {
		v["action."+k+"_per_action"] = float64(c["action."+k]) / acts
	}
	for _, k := range []string{"total", "Enter", "ToBeSignalled", "Exception", "Suspended", "Commit", "App"} {
		v["msgs_per_action."+k] = float64(c["msg."+k]) / acts
	}
	rounds := float64(c["action.rounds"]) / float64(w.roles)
	if rounds > 0 {
		v["resolution_msgs_per_round"] = float64(c["msg.Exception"]+c["msg.Suspended"]+c["msg.Commit"]) / rounds
	}

	// Resolver and except costs from the traced run's wrapper.
	if tr.raises > 0 {
		v["resolve.raise_us"] = us(tr.raiseSelf) / float64(tr.raises)
	}
	if tr.delivers > 0 {
		v["resolve.deliver_us"] = us(tr.deliverSelf) / float64(tr.delivers)
	}
	if tr.exceptCalls > 0 {
		v["except.resolve_us"] = us(tr.exceptDur) / float64(tr.exceptCalls)
	}
	if tr.instances > 0 {
		trRounds := float64(tr.instances) / (float64(tr.peersSum) / float64(tr.instances))
		v["resolve.delivers_per_round"] = float64(tr.delivers) / trRounds
		v["except.calls_per_round"] = float64(tr.exceptCalls) / trRounds
	}

	if w.durable {
		for _, k := range []string{"join", "raise", "vote", "outcome"} {
			v["wal.append_us."+k+".p50"] = p50us(tr.walByKind[k])
			v["wal.append_us."+k+".p99"] = p99us(tr.walByKind[k])
		}
		v["wal.records_per_action"] = float64(len(tr.walAll)) / float64(max(tr.actions, 1))
		first, last := tr.walQuarters()
		v["wal.append_us.first_quarter"], v["wal.append_us.last_quarter"] = us(first), us(last)
		rep.note("wal append growth: first quarter %s, last quarter %s, over %d appends", first, last, len(tr.walAll))
	}

	v["runtime.allocs_per_op"] = ref.rt.AllocsPerOp
	v["runtime.alloc_bytes_per_op"] = ref.rt.AllocBytesPerOp
	v["runtime.gc_cpu_share"] = ref.rt.GCCPUShare.Value()
	v["runtime.mutex_wait_us_per_op"] = ref.rt.MutexWaitUSPerOp
	v["runtime.sched_latency_p99_us"] = ref.rt.SchedP99US
	rep.note("runtime.gc_cpu_share %s", ref.rt.GCCPUShare)

	var total int64
	for _, ns := range tr.layerNS {
		total += ns
	}
	for _, l := range layers {
		ns := tr.layerNS[l]
		v["self_us_per_op."+l] = float64(ns) / 1e3 / float64(max(tr.actions, 1))
		share := ratio{Num: float64(ns), Den: float64(total)}
		v["self_share."+l] = share.Value()
		rep.note("self time %-12s %8.2f us/op  share %s", l, v["self_us_per_op."+l], share)
	}
	v["trace.spans_per_op"] = float64(tr.spanCount) / float64(max(tr.actions, 1))
}
