package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnapshot is a runtime/metrics reading; deltas between two give the
// Go runtime's per-op costs.
type rtSnapshot struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
	mutexWait          float64
	sched              *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) metrics.Value { return s[i].Value }
	snap := rtSnapshot{}
	if val(0).Kind() == metrics.KindUint64 {
		snap.allocs = val(0).Uint64()
	}
	if val(1).Kind() == metrics.KindUint64 {
		snap.allocBytes = val(1).Uint64()
	}
	if val(2).Kind() == metrics.KindFloat64 {
		snap.gcCPU = val(2).Float64()
	}
	if val(3).Kind() == metrics.KindFloat64 {
		snap.totalCPU = val(3).Float64()
	}
	if val(4).Kind() == metrics.KindFloat64 {
		snap.mutexWait = val(4).Float64()
	}
	if val(5).Kind() == metrics.KindFloat64Histogram {
		h := val(5).Float64Histogram()
		snap.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return snap
}

// rtDelta is the runtime's cost between two snapshots, per op where
// meaningful.
type rtDelta struct {
	AllocsPerOp, AllocBytesPerOp float64
	GCCPUShare                   ratio
	MutexWaitUSPerOp             float64
	SchedP99US                   float64
}

func runtimeDelta(a, b rtSnapshot, ops int) rtDelta {
	d := rtDelta{}
	if ops > 0 {
		d.AllocsPerOp = float64(b.allocs-a.allocs) / float64(ops)
		d.AllocBytesPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops)
		d.MutexWaitUSPerOp = (b.mutexWait - a.mutexWait) * 1e6 / float64(ops)
	}
	d.GCCPUShare = ratio{Num: b.gcCPU - a.gcCPU, Den: b.totalCPU - a.totalCPU}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		counts := make([]uint64, len(b.sched.Counts))
		var total uint64
		for i := range counts {
			counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
			total += counts[i]
		}
		// Upper edge of the bucket holding the 99th percentile.
		want := uint64(float64(total) * 0.99)
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen > want && total > 0 {
				edge := b.sched.Buckets[i+1]
				if edge > 1e300 {
					edge = b.sched.Buckets[i]
				}
				d.SchedP99US = edge * 1e6
				break
			}
		}
	}
	return d
}

// windowSampler cuts a measurement into windows of equal width and records
// the process CPU time at each boundary.
type windowSampler struct {
	stop, done chan struct{}
	cpu        []time.Duration // at the start and at each boundary
}

func startWindowSampler(width time.Duration) *windowSampler {
	w := &windowSampler{stop: make(chan struct{}), done: make(chan struct{}), cpu: []time.Duration{processCPU()}}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(width)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.cpu = append(w.cpu, processCPU())
			}
		}
	}()
	return w
}

// finish stops the sampler; its records are valid afterwards.
func (w *windowSampler) finish() {
	close(w.stop)
	<-w.done
}

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procPeakRSS reads a process's peak resident set (VmHWM) in bytes.
func procPeakRSS(pid int) (uint64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// environment is stamped into every result.
type environment struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	WALFS      string `json:"wal_fs"`
}

func stampEnvironment(workload string, seed int64, seconds int, traced bool, walDir string) environment {
	env := environment{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Workload:   workload,
		Seconds:    seconds,
		Trace:      traced,
		WALFS:      fsType(walDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		env.Commit = c
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(filepath.Clean(dir), &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
