package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"reorder/internal/stats"
)

// dist5 summarizes a sample: nearest-rank quartiles, minimum and count (all
// zero for an empty sample).
type dist5 struct {
	N                   int
	Min, Q1, Median, Q3 float64
}

func summarize(xs []float64) dist5 {
	if len(xs) == 0 {
		return dist5{}
	}
	c := stats.NewCDF(xs)
	return dist5{N: c.N(), Min: c.Quantile(0), Q1: c.Quantile(0.25), Median: c.Quantile(0.5), Q3: c.Quantile(0.75)}
}

// spread is the interquartile range as a share of the median.
func (d dist5) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / d.Median
}

func median(xs []float64) float64 { return summarize(xs).Median }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// usQuantile is the p-quantile of nanosecond readings, in microseconds (0 for
// none).
func usQuantile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	return stats.NewCDF(us).Quantile(p)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// usage is a point-in-time reading of the process counters a pass is
// charged with.
type usage struct {
	cpu       float64
	mallocs   uint64
	gcPauseNs uint64
	heapInuse uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuSeconds(), mallocs: ms.Mallocs, gcPauseNs: ms.PauseTotalNs, heapInuse: ms.HeapInuse}
}

// timeOp times rounds rounds of iters calls of fn each and returns the median
// round's nanoseconds per call and heap allocations per call. With a setup,
// setup runs before every call outside the clock and each call is clocked on
// its own; without one the clock wraps the whole round, so nanosecond-scale
// calls are not charged two clock reads each.
func timeOp(rounds, iters int, setup, fn func()) (nsPerOp, allocsPerOp float64) {
	ns := make([]float64, rounds)
	allocs := make([]float64, rounds)
	var ms runtime.MemStats
	for r := range ns {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		var spent time.Duration
		if setup == nil {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			spent = time.Since(start)
		} else {
			for i := 0; i < iters; i++ {
				setup()
				start := time.Now()
				fn()
				spent += time.Since(start)
			}
		}
		ns[r] = float64(spent.Nanoseconds()) / float64(iters)
		runtime.ReadMemStats(&ms)
		allocs[r] = float64(ms.Mallocs-m0) / float64(iters)
	}
	return median(ns), median(allocs)
}

// hostInfo is the machine and run context recorded with every result.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	CPUModel   string  `json:"cpu_model"`
	ScratchDir string  `json:"scratch_dir"`
	ScratchFS  string  `json:"scratch_fs"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
	// Noisy marks a run that started on a host already more than half busy;
	// the run proceeds, its numbers deserve suspicion.
	Noisy bool `json:"noisy"`
	// RefNsPerLoad is the host-speed reference of this run (hostref.go):
	// lower-quartile ns per dependent load, against refNominalNs.
	RefNsPerLoad float64 `json:"ref_ns_per_load"`
}

func readHost(workers int, scratch string) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), ScratchDir: scratch, ScratchFS: fsType(scratch),
		Load1Start: load1(),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	h.Noisy = h.Load1Start > float64(h.NProc)/2
	return h
}

// load1 is the 1-minute load average (0 where /proc is absent).
func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// fsType names the filesystem holding dir: checkpoint saves fsync, so
// whether the scratch directory is memory or a disk decides what
// durable-resume measures.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// span is one call the benchmark made into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps the benchmark's own spans in memory until exit. Spans are
// per call into a layer (a pass, a sweep, a leg), never per target, so the
// log stays small and recording costs the timed code nothing measurable.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id, for end and for children's parent.
func (l *spanLog) begin(name, workload string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, StartNs: time.Since(l.t0).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds()
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// wireCounters is what crossed the dist workers' connections, counted on the
// worker side: every worker message is one Write (a report's payload rides
// the same flush), and every coordinator message is one payload-free JSON
// line, so newlines read are coordinator messages.
type wireCounters struct {
	bytes      atomic.Int64
	workerMsgs atomic.Int64
	coordMsgs  atomic.Int64
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytes.Add(int64(n))
	c.c.coordMsgs.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytes.Add(int64(n))
	c.c.workerMsgs.Add(1)
	return n, err
}
