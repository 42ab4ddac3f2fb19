package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caaction"
	"caaction/load"
)

// inprocWorkload describes one of the in-process workloads.
type inprocWorkload struct {
	name  string
	roles int
	mix   load.Mix
	// durable runs the open-loop ladder against a System recording to a
	// fresh on-disk WAL under an admission budget; otherwise the workload
	// is a closed loop with one client per CPU.
	durable bool
}

// The durable-open ladder: arrival rates offered in turn, each for its share
// of the run. The reference rate, below capacity, gets the longest step, so
// that its p99 rests on thousands of arrivals and the memory at its end
// reflects a fixed amount of work; latency, goodput and the refused share
// are taken at the top rate, past capacity; and max_rate_within_slo is the
// highest rate whose p99 from the due time stays within sloLimit with no
// growing backlog.
var ladder = []struct {
	rate, share float64
}{{200, 0.5}, {1200, 0.25}, {2400, 0.25}}

const (
	refRate  = 200.0
	sloLimit = 100 * time.Millisecond
)

// admissionBudget is durable-open's WithMaxInFlight budget.
const admissionBudget = 32

// setupRepeats is how many times a run builds the System (and opens the
// WAL) to report the median set-up time.
const setupRepeats = 31

// warmup runs before measuring, so that pools, the mux and the heap reach
// their steady state first.
const warmup = 300 * time.Millisecond

type weightedKind struct {
	kind string
	w    int
}

// weights lists the mix's kinds with their weights.
func weights(mix load.Mix) []weightedKind {
	return []weightedKind{{load.KindCommit, mix.Commit}, {load.KindSignal, mix.Signal}, {load.KindAbort, mix.Abort}, {load.KindStorm, mix.Storm}}
}

// kindSequence draws n action kinds from mix with a seeded generator.
func kindSequence(mix load.Mix, seed int64, n int) []string {
	ws := weights(mix)
	total := 0
	for _, w := range ws {
		total += w.w
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		r := rng.Intn(total)
		for _, w := range ws {
			if r < w.w {
				out[i] = w.kind
				break
			}
			r -= w.w
		}
	}
	return out
}

// decisionSink collects the storm decisions of one action at a time.
type decisionSink struct {
	mu sync.Mutex
	ds []load.Decision
}

func (s *decisionSink) observe(d load.Decision) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

func (s *decisionSink) take() []load.Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := s.ds
	s.ds = nil
	return ds
}

// programs is one set of specs and role programs per kind, taken from
// load.Workload. A set serves one action at a time when it includes a storm
// observer; checkStorm alone may be called from many goroutines at once.
type programs struct {
	specs map[string]*caaction.Spec
	progs map[string]map[string]caaction.RoleProgram
	sink  *decisionSink

	coverMu sync.Mutex
	cover   map[string]string // storm raised set → the graph's cover
}

func newPrograms(kinds []string, roles int, tr *tracer) (*programs, error) {
	p := &programs{
		specs: make(map[string]*caaction.Spec),
		progs: make(map[string]map[string]caaction.RoleProgram),
		sink:  &decisionSink{},
		cover: make(map[string]string),
	}
	for _, k := range kinds {
		spec, progs, err := load.Workload(k, roles, p.sink.observe)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			progs = tr.wrapPrograms(progs)
		}
		p.specs[k], p.progs[k] = spec, progs
	}
	return p, nil
}

// checkStorm checks one storm action's decisions: one per role, every role
// agreeing on the resolved exception and the raised set, and the resolved
// exception being the cover the action's graph gives for that set.
func (p *programs) checkStorm(ds []load.Decision, roles int) error {
	if len(ds) != roles {
		return fmt.Errorf("storm: %d decisions, want one per role (%d)", len(ds), roles)
	}
	key := strings.Join(ds[0].Raised, ",")
	for _, d := range ds[1:] {
		if d.Resolved != ds[0].Resolved || strings.Join(d.Raised, ",") != key {
			return fmt.Errorf("storm: disagreement: %s resolved %q over %v, %s resolved %q over %v",
				ds[0].Role, ds[0].Resolved, ds[0].Raised, d.Role, d.Resolved, d.Raised)
		}
	}
	p.coverMu.Lock()
	want, ok := p.cover[key]
	p.coverMu.Unlock()
	if !ok {
		raised := make([]caaction.Exception, 0, len(ds[0].Raised))
		for _, id := range ds[0].Raised {
			raised = append(raised, caaction.Exception(id))
		}
		c, err := p.specs[load.KindStorm].Graph.Resolve(raised...)
		if err != nil {
			return fmt.Errorf("storm: graph refuses to resolve %v: %w", ds[0].Raised, err)
		}
		want = string(c)
		p.coverMu.Lock()
		p.cover[key] = want
		p.coverMu.Unlock()
	}
	if ds[0].Resolved != want {
		return fmt.Errorf("storm: resolved %q for raised %v, graph cover is %q", ds[0].Resolved, ds[0].Raised, want)
	}
	return nil
}

// outcomeOf merges an action's per-role outcomes in role order.
func outcomeOf(h *caaction.ActionHandle) string {
	var outs []string
	h.Each(func(_ string, err error) { outs = append(outs, load.ClassifyRole(err)) })
	return load.MergeOutcomes(outs...)
}

// verify checks a finished action's outcome against load.Expect and, for a
// storm, its decisions. It returns "" when the action is correct.
func (p *programs) verify(h *caaction.ActionHandle, kind string, roles int) string {
	ds := p.sink.take()
	if got, want := outcomeOf(h), load.Expect(kind); got != want {
		return fmt.Sprintf("%s action %s: outcome %q, want %q", kind, h.ID(), got, want)
	}
	if kind == load.KindStorm {
		if err := p.checkStorm(ds, roles); err != nil {
			return fmt.Sprintf("action %s: %v", h.ID(), err)
		}
	}
	return ""
}

// system is one built System with what the run needs around it.
type system struct {
	sys     *caaction.System
	metrics *caaction.Metrics
	wal     *caaction.WAL
	walPath string
}

func (s *system) close() error {
	err := s.sys.Close()
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// buildSystem assembles the System a workload runs on; with tr non-nil the
// resolver and the WAL are wrapped for tracing.
func buildSystem(w inprocWorkload, workers int, walPath string, tr *tracer) (*system, error) {
	s := &system{metrics: &caaction.Metrics{}}
	var proto caaction.ResolutionProtocol = caaction.Coordinated
	if tr != nil {
		proto = tracedProtocol{inner: proto, t: tr}
	}
	opts := []caaction.Option{
		caaction.WithRealTime(),
		caaction.WithSimTransport(0),
		caaction.WithMetrics(s.metrics),
		caaction.WithResolutionProtocol(proto),
		caaction.WithWorkers(workers),
	}
	if w.durable {
		wal, err := caaction.OpenWAL(walPath, 0)
		if err != nil {
			return nil, fmt.Errorf("open WAL: %w", err)
		}
		s.wal, s.walPath = wal, walPath
		var rec caaction.Recorder = wal
		if tr != nil {
			rec = &tracedWAL{w: wal, t: tr}
		}
		opts = append(opts, caaction.WithRecorder(rec), caaction.WithMaxInFlight(admissionBudget))
	}
	sys, err := caaction.New(opts...)
	if err != nil {
		if s.wal != nil {
			_ = s.wal.Close()
		}
		return nil, fmt.Errorf("build system: %w", err)
	}
	s.sys = sys
	return s, nil
}

// inprocRun is everything one in-process measurement produced.
type inprocRun struct {
	elapsed   time.Duration
	attempted int
	failed    int
	finished  int // actions that ran to completion, correct or not
	ok        int
	failures  []string
	cpu       time.Duration
	// closed loop only: the latency of every correct action, and each
	// window's completions, as they happen
	all      *hist
	wins     []*winAcc
	windows  *windowSampler
	peakRSS  uint64           // the process's, at the end of the run
	counters map[string]int64 // Metrics deltas
	rt       rtDelta
	// open loop only
	steps      []stepResult
	late       []time.Duration
	refPeakRSS uint64 // the process's peak RSS when the reference step ended
}

// winAcc gathers one window's closed-loop completions.
type winAcc struct {
	finished, ok atomic.Int64
	lat          hist // of the correct ones
}

// record counts one finished closed-loop action, at its time since the
// measurement started; lat is 0 for an incorrect action.
func (r *inprocRun) record(at, lat time.Duration) {
	if r.all == nil {
		return
	}
	if lat > 0 {
		r.all.add(lat)
	}
	k := int(at / windowWidth)
	if k >= len(r.wins) {
		return
	}
	w := r.wins[k]
	w.finished.Add(1)
	if lat > 0 {
		w.ok.Add(1)
		w.lat.add(lat)
	}
}

// windowWidth is the width of the windows closed-loop figures are taken
// over. Each closed-loop metric is the best quartile over the run's windows
// (see bestRate), so interference from outside the program that slows some
// windows does not move the result.
const windowWidth = 250 * time.Millisecond

// window is one window's closed-loop figures.
type window struct {
	finished, ok int
	lat          dist
	cpuPerOp     time.Duration
}

// windowed lists a closed-loop run's full windows.
func (r *inprocRun) windowed() []window {
	n := min(len(r.wins), len(r.windows.cpu)-1)
	ws := make([]window, n)
	for k := range ws {
		w := r.wins[k]
		ws[k] = window{finished: int(w.finished.Load()), ok: int(w.ok.Load()), lat: w.lat.dist()}
		ws[k].cpuPerOp = (r.windows.cpu[k+1] - r.windows.cpu[k]) / time.Duration(max(ws[k].finished, 1))
	}
	return ws
}

func (r *inprocRun) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// countWarmup counts the warm-up's actions and failures with the run's:
// they are outputs of the program too, though no figure is taken from them.
func (r *inprocRun) countWarmup(w *inprocRun) {
	r.attempted += w.attempted
	r.failed += w.failed
	r.failures = append(r.failures, w.failures...)
}

type stepResult struct {
	rate     float64
	offered  int
	admitted int
	refused  int
	ok       int
	wall     time.Duration
	lat      []time.Duration // due-time latency of correct completions
	slo      sloResult
}

// runner drives one in-process workload.
type runner struct {
	w       inprocWorkload
	kinds   []string // the seeded kind sequence
	clients int
	workDir string
	walSeq  int
}

func newRunner(w inprocWorkload, seed int64, workDir string) *runner {
	return &runner{
		w:       w,
		kinds:   kindSequence(w.mix, seed, 1<<16),
		clients: runtime.NumCPU(),
		workDir: workDir,
	}
}

// mixKinds lists the kinds the mix draws.
func (r *runner) mixKinds() []string {
	var ks []string
	for _, k := range weights(r.w.mix) {
		if k.w > 0 {
			ks = append(ks, k.kind)
		}
	}
	return ks
}

func (r *runner) workers() int {
	if r.w.durable {
		return admissionBudget * r.w.roles
	}
	// One spare worker set per client: a finished action's workers tidy
	// up after WaitDone has returned, and without the spare set the
	// client's next action would often find the pool short and fall back
	// to a goroutine per role.
	return 2 * r.clients * r.w.roles
}

func (r *runner) nextWALPath() string {
	r.walSeq++
	return filepath.Join(r.workDir, fmt.Sprintf("%s-%d-%d.wal", r.w.name, os.Getpid(), r.walSeq))
}

// setup builds the System setupRepeats times and returns the median time
// to a System ready to serve, with the last System, left open for the
// measurement. In memory that is the System built and one action of each
// kind in the mix run to completion, so that set-up work the System defers
// to its first action is counted too. On a WAL it is the System built and
// the WAL opened: the first actions still run, but each waits on several
// fsyncs, which are the disk's per-action time, not set-up, and which made
// the figure follow how busy the host's disk was.
func (r *runner) setup() (*system, time.Duration, error) {
	p, err := newPrograms(r.mixKinds(), r.w.roles, nil)
	if err != nil {
		return nil, 0, err
	}
	var times []float64
	var s *system
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := r.discard(s); err != nil {
				return nil, 0, err
			}
		}
		path := r.nextWALPath()
		t0 := time.Now()
		s, err = buildSystem(r.w, r.workers(), path, nil)
		if err != nil {
			return nil, 0, err
		}
		built := time.Since(t0)
		for _, kind := range r.mixKinds() {
			h, err := s.sys.StartAction(context.Background(), p.specs[kind], p.progs[kind])
			if err != nil {
				_ = r.discard(s)
				return nil, 0, fmt.Errorf("set-up action: %w", err)
			}
			h.WaitDone()
			if msg := p.verify(h, kind, r.w.roles); msg != "" {
				_ = r.discard(s)
				return nil, 0, fmt.Errorf("set-up action: %s", msg)
			}
		}
		if r.w.durable {
			times = append(times, float64(built))
		} else {
			times = append(times, float64(time.Since(t0)))
		}
	}
	return s, time.Duration(median(times)), nil
}

// discard closes a System and removes its WAL.
func (r *runner) discard(s *system) error {
	err := s.close()
	if s.walPath != "" {
		_ = os.Remove(s.walPath)
	}
	return err
}

// measure runs the workload for d on s and collects its results.
func (r *runner) measure(s *system, d time.Duration, tr *tracer) (*inprocRun, error) {
	if r.w.durable {
		return r.measureOpen(s, d, tr)
	}
	sets := make([]*programs, r.clients)
	for i := range sets {
		p, err := newPrograms(r.mixKinds(), r.w.roles, tr)
		if err != nil {
			return nil, err
		}
		sets[i] = p
	}
	var next atomic.Int64
	warm := &inprocRun{}
	r.closedLoop(s, sets, &next, time.Now(), time.Now().Add(warmup), nil, warm)
	run := &inprocRun{all: &hist{}, wins: make([]*winAcc, d/windowWidth)}
	run.countWarmup(warm)
	for k := range run.wins {
		run.wins[k] = &winAcc{}
	}
	before, rt0, cpu0 := s.metrics.Snapshot(), readRuntime(), processCPU()
	run.windows = startWindowSampler(windowWidth)
	start := time.Now()
	r.closedLoop(s, sets, &next, start, start.Add(d), tr, run)
	run.windows.finish()
	return run, run.end(s, start, before, rt0, cpu0)
}

// closedLoop runs one client per program set until deadline: each client
// starts an action, waits for it, checks it, and starts the next.
func (r *runner) closedLoop(s *system, sets []*programs, next *atomic.Int64, start, deadline time.Time, tr *tracer, run *inprocRun) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var attempted, finished, ok int
			var bad []string
			for time.Now().Before(deadline) {
				idx := next.Add(1) - 1
				kind := r.kinds[idx%int64(len(r.kinds))]
				spec, progs := p.specs[kind], p.progs[kind]
				attempted++
				var h *caaction.ActionHandle
				var err error
				var d time.Duration
				if tr != nil {
					tag := "t" + strconv.FormatInt(idx, 10)
					at := tr.begin(tag, kind)
					t0 := tr.now()
					h, err = s.sys.StartTagged(context.Background(), tag, spec, progs)
					t1 := tr.now()
					if err == nil {
						h.WaitDone()
					}
					t2 := tr.now()
					tr.finish(at, t0, t1, t2)
					d = time.Duration(t2 - t0)
				} else {
					t0 := time.Now()
					h, err = s.sys.StartAction(context.Background(), spec, progs)
					if err == nil {
						h.WaitDone()
					}
					d = time.Since(t0)
				}
				if err != nil {
					bad = append(bad, fmt.Sprintf("%s action: start: %v", kind, err))
					continue
				}
				finished++
				at := time.Since(start)
				if msg := p.verify(h, kind, r.w.roles); msg != "" {
					bad = append(bad, msg)
					run.record(at, 0)
				} else {
					ok++
					run.record(at, d)
				}
			}
			mu.Lock()
			run.attempted += attempted
			run.finished += finished
			run.ok += ok
			for _, b := range bad {
				run.fail(b)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// measureOpen offers the ladder's arrivals on an absolute schedule from one
// dispatching goroutine. Each arrival is timed from when it was due.
func (r *runner) measureOpen(s *system, d time.Duration, tr *tracer) (*inprocRun, error) {
	// Storm sets carry an observer and serve one action at a time; the
	// budget bounds admitted storms, and the extra sets cover the moment
	// between a slot being released and its waiter handing the set back.
	pool := make(chan *programs, 2*admissionBudget)
	for i := 0; i < cap(pool); i++ {
		p, err := newPrograms(r.mixKinds(), r.w.roles, tr)
		if err != nil {
			return nil, err
		}
		pool <- p
	}
	shared := <-pool
	var next int64
	// Warm up at the reference rate.
	warm := &inprocRun{}
	r.offer(s, shared, pool, refRate, warmup, &next, nil, warm)

	run := &inprocRun{}
	run.countWarmup(warm)
	before, rt0, cpu0 := s.metrics.Snapshot(), readRuntime(), processCPU()
	start := time.Now()
	for _, step := range ladder {
		st := r.offer(s, shared, pool, step.rate, time.Duration(step.share*float64(d)), &next, tr, run)
		run.steps = append(run.steps, st)
		if step.rate == refRate {
			rss, err := procPeakRSS(os.Getpid())
			if err != nil {
				return nil, err
			}
			run.refPeakRSS = rss
		}
	}
	return run, run.end(s, start, before, rt0, cpu0)
}

// end records what a measurement reads once it is over.
func (run *inprocRun) end(s *system, start time.Time, before map[string]int64, rt0 rtSnapshot, cpu0 time.Duration) error {
	run.elapsed = time.Since(start)
	run.cpu = processCPU() - cpu0
	run.rt = runtimeDelta(rt0, readRuntime(), run.finished)
	run.counters = delta(before, s.metrics.Snapshot())
	var err error
	run.peakRSS, err = procPeakRSS(os.Getpid())
	return err
}

// offer runs one ladder step: rate arrivals a second for d, then waits for
// the admitted ones to finish.
func (r *runner) offer(s *system, shared *programs, pool chan *programs, rate float64, d time.Duration,
	next *int64, tr *tracer, run *inprocRun) stepResult {
	n := int(rate * d.Seconds())
	arrivals := make([]arrival, n)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad []string
	okFlags := make([]bool, n)
	origin := time.Now()
	for i := 0; i < n; i++ {
		a := &arrivals[i]
		a.Due = origin.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if w := time.Until(a.Due); w > 0 {
			time.Sleep(w)
		}
		idx := *next
		*next++
		kind := r.kinds[idx%int64(len(r.kinds))]
		p := shared
		if kind == load.KindStorm {
			p = <-pool
		}
		a.InFlight = int(inflight.Load())
		a.Sent = time.Now()
		var h *caaction.ActionHandle
		var err error
		var at *actionTrace
		var t0, t1 int64
		if tr != nil {
			tag := "t" + strconv.FormatInt(idx, 10)
			at = tr.begin(tag, kind)
			t0 = tr.now()
			h, err = s.sys.StartTagged(context.Background(), tag, p.specs[kind], p.progs[kind])
			t1 = tr.now()
		} else {
			h, err = s.sys.StartAction(context.Background(), p.specs[kind], p.progs[kind])
		}
		if err != nil {
			if at != nil {
				tr.live.Delete(at.tag)
			}
			if kind == load.KindStorm {
				pool <- p
			}
			if errors.Is(err, caaction.ErrOverloaded) {
				a.Refused = true
			} else {
				a.Failed = true
				mu.Lock()
				bad = append(bad, fmt.Sprintf("%s action: start: %v", kind, err))
				mu.Unlock()
			}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.WaitDone()
			arrivals[i].Done = time.Now()
			if at != nil {
				tr.finish(at, t0, t1, tr.now())
			}
			inflight.Add(-1)
			msg := p.verify(h, kind, r.w.roles)
			if kind == load.KindStorm {
				pool <- p
			}
			if msg != "" {
				arrivals[i].Failed = true
				mu.Lock()
				bad = append(bad, msg)
				mu.Unlock()
				return
			}
			okFlags[i] = true
		}(i)
	}
	wg.Wait()
	st := stepResult{rate: rate, offered: n, wall: time.Since(origin)}
	for i, a := range arrivals {
		run.late = append(run.late, a.lateness())
		switch {
		case a.Refused:
			st.refused++
		case okFlags[i]:
			st.admitted++
			st.ok++
			st.lat = append(st.lat, a.dueLatency())
		default:
			if !a.Done.IsZero() {
				st.admitted++
			}
		}
		if !a.Done.IsZero() {
			run.finished++
		}
	}
	st.slo = judgeStep(arrivals, sloLimit)
	run.attempted += n
	run.ok += st.ok
	for _, b := range bad {
		run.fail(b)
	}
	return st
}

// delta subtracts two counter snapshots.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
