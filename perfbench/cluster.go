package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"caaction/cluster"
	"caaction/load"
)

// pollInterval is how often the driver asks a node whether a round is
// done. It must stay well below the round latency, or the driver measures
// its own polling instead of the cluster.
const pollInterval = 500 * time.Microsecond

// statusPoll is how often bootFleet asks a node whether it has found its
// peers, well below the few milliseconds discovery takes.
const statusPoll = 100 * time.Microsecond

// roundsPerBatch is the size of each load.RunCluster call; a multiple of
// the twelve-round default kind cycle, so every batch has the same mix.
const roundsPerBatch = 48

// roundsPerFleet is how many measured rounds one booted fleet serves before
// the run stops it and boots a fresh one. A node keeps every instance it
// has started (cluster.Node never forgets a tag), so its heap, its
// collector's work and its RSS grow with the rounds it has served, and it
// slows as they grow. Giving every fleet the same rounds makes each figure
// independent of how many rounds a run gets through: a faster program does
// not read as one that uses more memory, and a cost that grows with history
// shows in full in every fleet.
const roundsPerFleet = 16 * roundsPerBatch

// clusterSetups is how many times a run boots the cluster before it
// measures, for the median set-up time; every measured fleet's boot counts
// too.
const clusterSetups = 15

type node struct {
	name, control string
	cmd           *exec.Cmd
	log           *os.File
	drained       chan struct{} // closed when the node's stdout reaches EOF
}

type fleet struct {
	nodes     []*node
	boot      time.Duration // spawn until every node printed READY
	discovery time.Duration // READY until every node knows every peer
}

// bootFleet starts n canode processes, one role thread each, and waits
// until each has discovered all the others. Each node is given every node
// started before it as a seed, so its first hello exchange, made as it
// starts serving, completes discovery: the time does not wait on the
// nodes' periodic exchange.
func bootFleet(canode string, n int, logDir string) (*fleet, error) {
	place := make([]string, n)
	for i := range place {
		place[i] = fmt.Sprintf("%s=n%d", load.ThreadName(i), i+1)
	}
	f := &fleet{}
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		var seeds []string
		for _, nd := range f.nodes {
			seeds = append(seeds, nd.control)
		}
		nd, err := spawnNode(canode, fmt.Sprintf("n%d", i), strings.Join(place, ","), seeds, logDir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
	}
	t1 := time.Now()
	deadline := t1.Add(30 * time.Second)
	for _, nd := range f.nodes {
		for {
			st, err := cluster.Status(nd.control)
			if err == nil && len(st.Peers) == n && len(st.PeersDown) == 0 {
				break
			}
			if time.Now().After(deadline) {
				f.stop()
				return nil, fmt.Errorf("%s never saw %d peers (last error %v)", nd.name, n, err)
			}
			time.Sleep(statusPoll)
		}
	}
	f.boot, f.discovery = t1.Sub(t0), time.Since(t1)
	return f, nil
}

func spawnNode(canode, name, placement string, seeds []string, logDir string) (*node, error) {
	logFile, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	args := []string{
		"-node", "-name", name, "-placement", placement,
		"-resolver", "coordinated",
		"-exchange-every", "100ms",
		"-signal-timeout", "20s", "-action-timeout", "40s",
		// Room for every in-flight round to be a chatter round with its
		// whole burst outstanding on one node pair, so the credit window
		// does not throttle the measurement.
		"-peer-window", strconv.Itoa(runtime.NumCPU()*load.ChatterBurst + 4096),
	}
	if len(seeds) > 0 {
		args = append(args, "-seeds", strings.Join(seeds, ","))
	}
	cmd := exec.Command(canode, args...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	nd := &node{name: name, cmd: cmd, log: logFile, drained: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(nd.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			for _, kv := range strings.Fields(strings.TrimPrefix(sc.Text(), "READY ")) {
				if v, ok := strings.CutPrefix(kv, "control="); ok {
					select {
					case ready <- v:
					default:
					}
				}
			}
		}
	}()
	select {
	case nd.control = <-ready:
		return nd, nil
	case <-nd.drained:
	case <-time.After(20 * time.Second):
	}
	nd.kill()
	return nil, fmt.Errorf("%s never reported READY (log %s)", name, logFile.Name())
}

func (nd *node) kill() {
	_ = nd.cmd.Process.Kill()
	<-nd.drained
	_ = nd.cmd.Wait()
	nd.log.Close()
}

// stop asks every node to stop and waits for each process to end, killing
// any that does not within five seconds.
func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, nd := range f.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cluster.StopNode(nd.control)
			select {
			case <-nd.drained:
				_ = nd.cmd.Wait()
				nd.log.Close()
			case <-time.After(5 * time.Second):
				nd.kill()
			}
		}()
	}
	wg.Wait()
}

func (f *fleet) counters() (map[string]int64, error) {
	total := make(map[string]int64)
	for _, nd := range f.nodes {
		mi, err := cluster.MetricsOf(nd.control)
		if err != nil {
			return nil, err
		}
		for k, v := range mi.Counters {
			total[k] += v
		}
	}
	return total, nil
}

func (f *fleet) cpu() ([]time.Duration, error) {
	out := make([]time.Duration, len(f.nodes))
	for i, nd := range f.nodes {
		c, err := procCPU(nd.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// roundDriver is the load.ClusterOps the benchmark supplies: it starts a
// round on every node, polls each for the result every pollInterval, merges
// outcomes with load.MergeOutcomes and checks storm decisions. A failing
// round is reported to RunCluster as an error outcome, never as an error,
// so one failure does not abort the run and every failure is counted.
type roundDriver struct {
	f     *fleet
	roles int
	spec  *programs // storm spec for the cover check

	mu       sync.Mutex
	kinds    map[string]string
	started  map[string]time.Time
	startErr map[string]error
	lat      []time.Duration
	starts   []time.Duration // per node start call
	polls    int
	rounds   int
	failures []string
}

func newRoundDriver(f *fleet, roles int) (*roundDriver, error) {
	p, err := newPrograms([]string{load.KindStorm}, roles, nil)
	if err != nil {
		return nil, err
	}
	return &roundDriver{f: f, roles: roles, spec: p,
		kinds: make(map[string]string), started: make(map[string]time.Time), startErr: make(map[string]error)}, nil
}

func (d *roundDriver) ops() load.ClusterOps {
	return load.ClusterOps{Start: d.start, Await: d.await}
}

func (d *roundDriver) start(tag, kind string, roles int) error {
	t0 := time.Now()
	var starts []time.Duration
	var err error
	for _, nd := range d.f.nodes {
		s := time.Now()
		if _, err = cluster.Start(nd.control, cluster.StartRequest{Tag: tag, Kind: kind, Roles: roles}); err != nil {
			break
		}
		starts = append(starts, time.Since(s))
	}
	d.mu.Lock()
	d.kinds[tag], d.started[tag] = kind, t0
	d.starts = append(d.starts, starts...)
	if err != nil {
		d.startErr[tag] = err
	}
	d.mu.Unlock()
	return nil
}

func (d *roundDriver) await(tag string) (string, error) {
	d.mu.Lock()
	kind, t0, serr := d.kinds[tag], d.started[tag], d.startErr[tag]
	delete(d.kinds, tag)
	delete(d.started, tag)
	delete(d.startErr, tag)
	d.mu.Unlock()
	outcome, polls, err := d.collect(tag, kind, serr)
	elapsed := time.Since(t0)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rounds++
	d.polls += polls
	if err != nil {
		if len(d.failures) < 5 {
			d.failures = append(d.failures, fmt.Sprintf("round %s (%s): %v", tag, kind, err))
		}
		return "error: " + err.Error(), nil
	}
	if outcome == load.Expect(kind) {
		d.lat = append(d.lat, elapsed)
	}
	return outcome, nil
}

func (d *roundDriver) collect(tag, kind string, startErr error) (string, int, error) {
	if startErr != nil {
		return "", 0, fmt.Errorf("start: %w", startErr)
	}
	var outs []string
	var decisions []load.Decision
	polls := 0
	deadline := time.Now().Add(45 * time.Second)
	for _, nd := range d.f.nodes {
		for {
			polls++
			res, err := cluster.Result(nd.control, tag)
			if err == nil && res.Done {
				for _, role := range sortedKeys(res.Outcomes) {
					outs = append(outs, res.Outcomes[role])
				}
				decisions = append(decisions, res.Decisions...)
				break
			}
			if time.Now().After(deadline) {
				return "", polls, fmt.Errorf("never finished on %s (last error %v)", nd.name, err)
			}
			time.Sleep(pollInterval)
		}
	}
	if kind == load.KindStorm {
		if err := d.spec.checkStorm(decisions, d.roles); err != nil {
			return "", polls, err
		}
	}
	return load.MergeOutcomes(outs...), polls, nil
}

// clusterRun is one measured stretch of rounds, over one fleet or several.
type clusterRun struct {
	elapsed     time.Duration // driving time, without boots and warm-ups
	rounds      int
	failed      int
	failures    []string
	lat, starts []time.Duration
	polls       int
	counters    map[string]int64
	nodeCPU     []time.Duration // per node, summed over fleets
	warmRounds  int             // rounds run to warm fleets up, not measured
	fleetRates  []float64       // each fleet's rounds per second
	fleetLat    []dist          // each fleet's round latencies
	halves      [2]rateSum      // each fleet's first and second half of rounds
	peakRSS     []uint64        // each fleet's largest node peak RSS
	rt          rtDelta
}

// rateSum adds up rounds and the time they took.
type rateSum struct {
	rounds int
	d      time.Duration
}

func (r rateSum) perSecond() float64 { return float64(r.rounds) / r.d.Seconds() }

// drive runs batches of rounds through load.RunCluster on one fleet.
func drive(f *fleet, seed int64, batch *int, batches int) (*clusterRun, error) {
	drv, err := newRoundDriver(f, len(f.nodes))
	if err != nil {
		return nil, err
	}
	before, err := f.counters()
	if err != nil {
		return nil, err
	}
	cpu0, err := f.cpu()
	if err != nil {
		return nil, err
	}
	run := &clusterRun{}
	start := time.Now()
	var mid time.Time
	var midRounds int
	for i := 0; i < batches; i++ {
		if i == batches/2 {
			mid = time.Now()
			drv.mu.Lock()
			midRounds = drv.rounds
			drv.mu.Unlock()
		}
		*batch++
		rep, err := load.RunCluster(load.ClusterConfig{
			Label:       strconv.Itoa(*batch),
			Rounds:      roundsPerBatch,
			Roles:       len(f.nodes),
			Concurrency: runtime.NumCPU(),
			TagPrefix:   fmt.Sprintf("s%d", seed),
		}, drv.ops())
		if err != nil {
			return nil, err
		}
		run.failed += len(rep.Unexpected)
		for _, u := range rep.Unexpected {
			if len(run.failures) < 5 {
				run.failures = append(run.failures, u)
			}
		}
	}
	end := time.Now()
	run.elapsed = end.Sub(start)
	after, err := f.counters()
	if err != nil {
		return nil, err
	}
	cpu1, err := f.cpu()
	if err != nil {
		return nil, err
	}
	run.counters = delta(before, after)
	for i := range cpu1 {
		run.nodeCPU = append(run.nodeCPU, cpu1[i]-cpu0[i])
	}
	run.rounds, run.lat, run.starts, run.polls = drv.rounds, drv.lat, drv.starts, drv.polls
	run.failures = append(run.failures, drv.failures...)
	run.halves = [2]rateSum{{midRounds, mid.Sub(start)}, {run.rounds - midRounds, end.Sub(mid)}}
	return run, nil
}

// add folds one fleet's rounds into the run.
func (run *clusterRun) add(f *clusterRun, peakRSS uint64) {
	run.elapsed += f.elapsed
	run.rounds += f.rounds
	run.warmRounds += f.warmRounds
	run.failed += f.failed
	for _, msg := range f.failures {
		if len(run.failures) < 5 {
			run.failures = append(run.failures, msg)
		}
	}
	run.lat = append(run.lat, f.lat...)
	run.starts = append(run.starts, f.starts...)
	run.polls += f.polls
	for k, v := range f.counters {
		run.counters[k] += v
	}
	if run.nodeCPU == nil {
		run.nodeCPU = make([]time.Duration, len(f.nodeCPU))
	}
	for i, c := range f.nodeCPU {
		run.nodeCPU[i] += c
	}
	run.fleetRates = append(run.fleetRates, float64(f.rounds)/f.elapsed.Seconds())
	run.fleetLat = append(run.fleetLat, summarize(f.lat))
	for i := range run.halves {
		run.halves[i].rounds += f.halves[i].rounds
		run.halves[i].d += f.halves[i].d
	}
	run.peakRSS = append(run.peakRSS, peakRSS)
}

// clusterBench boots the fleets a cluster run measures on.
type clusterBench struct {
	canode  string
	n       int
	seed    int64
	workDir string
	batch   int
	boots   int
	// boot and discovery time of every fleet booted
	setups, bootTimes, discTimes []float64
}

// boot starts a fresh fleet and records its set-up time.
func (c *clusterBench) boot() (*fleet, string, error) {
	c.boots++
	logDir := filepath.Join(c.workDir, fmt.Sprintf("nodes-%d-%d", os.Getpid(), c.boots))
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, "", err
	}
	f, err := bootFleet(c.canode, c.n, logDir)
	if err != nil {
		return nil, "", err
	}
	c.setups = append(c.setups, (f.boot + f.discovery).Seconds())
	c.bootTimes = append(c.bootTimes, f.boot.Seconds())
	c.discTimes = append(c.discTimes, f.discovery.Seconds())
	return f, logDir, nil
}

// stop stops a fleet and, when it served every round correctly, removes
// its node logs.
func (c *clusterBench) stop(f *fleet, logDir string, clean bool) {
	f.stop()
	if clean {
		_ = os.RemoveAll(logDir)
	}
}

// measure runs fresh fleets of roundsPerFleet rounds each until d has
// passed; the fleet under way when it does runs to its end.
func (c *clusterBench) measure(d time.Duration) (*clusterRun, error) {
	run := &clusterRun{counters: make(map[string]int64)}
	rt0 := readRuntime()
	start := time.Now()
	for len(run.fleetRates) == 0 || time.Since(start) < d {
		f, logDir, err := c.boot()
		if err != nil {
			return nil, err
		}
		fr, peak, err := c.serve(f)
		c.stop(f, logDir, err == nil && fr.failed == 0)
		if err != nil {
			return nil, err
		}
		run.add(fr, peak)
	}
	run.rt = runtimeDelta(rt0, readRuntime(), run.rounds)
	return run, nil
}

// serve warms a fleet up with one batch, then drives its measured rounds
// and reads its largest node's peak RSS. The warm-up's rounds are checked
// and counted like the others; no figure is taken from them.
func (c *clusterBench) serve(f *fleet) (*clusterRun, uint64, error) {
	warm, err := drive(f, c.seed, &c.batch, 1)
	if err != nil {
		return nil, 0, err
	}
	fr, err := drive(f, c.seed, &c.batch, roundsPerFleet/roundsPerBatch)
	if err != nil {
		return nil, 0, err
	}
	fr.warmRounds = warm.rounds
	fr.failed += warm.failed
	fr.failures = append(warm.failures, fr.failures...)
	var peak uint64
	for _, nd := range f.nodes {
		rss, err := procPeakRSS(nd.cmd.Process.Pid)
		if err != nil {
			return nil, 0, err
		}
		peak = max(peak, rss)
	}
	return fr, peak, nil
}

func runCluster(seed int64, d time.Duration, traced bool, workDir, canode string) (*report, error) {
	if _, err := os.Stat(canode); err != nil {
		return nil, fmt.Errorf("canode binary: %w", err)
	}
	c := &clusterBench{canode: canode, n: max(runtime.NumCPU(), 2), seed: seed, workDir: workDir}
	for i := 0; i < clusterSetups; i++ {
		f, logDir, err := c.boot()
		if err != nil {
			return nil, err
		}
		c.stop(f, logDir, true)
	}
	if traced {
		d /= 2
	}
	run, err := c.measure(d)
	if err != nil {
		return nil, err
	}
	rep := &report{values: make(map[string]float64)}
	rep.attempted, rep.failed, rep.failures = run.rounds+run.warmRounds, run.failed, run.failures
	rep.note("cluster: %d nodes, poll interval %s, %d rounds in flight, %d fleets of %d rounds, %d boots",
		c.n, pollInterval, c.n, len(run.fleetRates), roundsPerFleet, c.boots)
	e2e := clusterEndToEnd(run, median(c.setups), rep)
	if !traced {
		rep.values = e2e
		return rep, nil
	}
	trun, err := c.measure(d)
	if err != nil {
		return nil, err
	}
	rep.attempted += trun.rounds + trun.warmRounds
	rep.failed += trun.failed
	rep.failures = append(rep.failures, trun.failures...)
	v := rep.values
	rounds := float64(max(run.rounds, 1))
	cn := run.counters
	v["wire.msgs_per_round"] = float64(cn["msg.total"]) / rounds
	v["wire.batch_frames_per_round"] = float64(cn["tcp.batch_frames"]) / rounds
	if cn["tcp.batch_frames"] > 0 {
		v["wire.msgs_per_frame"] = float64(cn["msg.total"]) / float64(cn["tcp.batch_frames"])
	}
	v["wire.credit_stalls"] = float64(cn["tcp.credit_stalls"])
	v["wire.reinjected"] = float64(cn["tcp.reinjected"])
	var sum, top float64
	for _, cpu := range run.nodeCPU {
		per := ms(cpu) / rounds
		sum += per
		top = max(top, per)
	}
	v["node.cpu_ms_per_round.mean"] = sum / float64(len(run.nodeCPU))
	v["node.cpu_ms_per_round.max"] = top
	v["control.start_ms.p50"] = ms(summarize(trun.starts).P50)
	v["control.polls_per_round"] = float64(trun.polls) / float64(max(trun.rounds, 1))
	v["control.poll_interval_ms"] = ms(pollInterval)
	v["latency_p99_ms"] = e2e["latency_p99_ms"]
	v["cluster.boot_s"] = median(c.bootTimes)
	v["cluster.discovery_s"] = median(c.discTimes)
	v["cluster.second_half_rate_ratio"] = ratio{Num: run.halves[1].perSecond(), Den: run.halves[0].perSecond()}.Value()
	v["runtime.allocs_per_op"] = run.rt.AllocsPerOp
	v["runtime.alloc_bytes_per_op"] = run.rt.AllocBytesPerOp
	v["runtime.gc_cpu_share"] = run.rt.GCCPUShare.Value()
	v["runtime.mutex_wait_us_per_op"] = run.rt.MutexWaitUSPerOp
	v["runtime.sched_latency_p99_us"] = run.rt.SchedP99US
	for _, k := range []string{"Enter", "ToBeSignalled", "Exception", "Suspended", "Commit", "App"} {
		v["msgs_per_action."+k] = float64(cn["msg."+k]) / rounds
	}
	v["msgs_per_action.total"] = float64(cn["msg.total"]) / rounds
	with, base := trun.rate(), e2e["throughput"]
	v["trace.overhead_ratio"] = ratio{Num: with, Den: base}.Value()
	rep.note("trace overhead: traced/untraced %s", ratio{Num: with, Den: base})
	return rep, nil
}

// rate is the run's rounds per second: the upper quartile over its fleets
// (see bestRate). Every fleet serves the same rounds from a fresh start, so
// the fastest fleets are those the host slowed least, not those with the
// least history behind them.
func (run *clusterRun) rate() float64 { return bestRate(run.fleetRates) }

func clusterEndToEnd(run *clusterRun, setup float64, rep *report) map[string]float64 {
	var cpu time.Duration
	for _, c := range run.nodeCPU {
		cpu += c
	}
	attempted := run.rounds + run.warmRounds
	okr := ratio{Num: float64(attempted - run.failed), Den: float64(attempted)}
	rep.note("ok_ratio %s", okr)
	thr := run.rate()
	rep.note("rounds/s per fleet %.1f; over the whole run %.1f", run.fleetRates, float64(run.rounds)/run.elapsed.Seconds())
	rep.note("rounds/s over each fleet's first half %.1f, second half %.1f", run.halves[0].perSecond(), run.halves[1].perSecond())
	peaks := make([]float64, len(run.peakRSS))
	for i, p := range run.peakRSS {
		peaks[i] = float64(p) / (1 << 20)
	}
	rep.note("peak node RSS per fleet (MB) %.2f", peaks)
	v := map[string]float64{
		"setup_s":       setup,
		"throughput":    thr,
		"cpu_us_per_op": us(cpu) / float64(max(run.rounds, 1)),
		"peak_mem_mb":   median(peaks),
		"ok_ratio":      okr.Value(),
		"goodput":       thr * okr.Value(),
	}
	rep.latency(v, "round latency", summarize(run.lat))
	var p50s, p90s []float64
	for _, d := range run.fleetLat {
		p50s, p90s = append(p50s, ms(d.P50)), append(p90s, ms(d.P90))
	}
	rep.note("round latency per fleet (ms): p50 %.2f, p90 %.2f", p50s, p90s)
	v["latency_p50_ms"], v["latency_p90_ms"] = bestTime(p50s), bestTime(p90s)
	return v
}
