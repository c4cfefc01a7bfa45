package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine and toolchain a result was measured on,
// printed with every result so a difference between two result sets can be
// told apart from a change of host.
type hostRecord struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readHost(dataDir string) hostRecord {
	return hostRecord{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataDirFS:  fsType(dataDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding path from its statfs magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuStat is a snapshot of the aggregate "cpu" line of /proc/stat, in clock
// ticks.
type cpuStat struct {
	total, steal uint64
}

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so stop at steal.
	for i, v := range fields[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// stealShare is the share of all CPU ticks between two snapshots that the
// hypervisor gave to other guests.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// selfCPU returns the CPU time this process has used, all threads, user
// plus system. The kernel counts it from the scheduler's task clock, which
// on a KVM guest with paravirtualised steal accounting leaves out the time
// the hypervisor stole; time spent waiting for a CPU is never counted.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU returns the CPU time another process has used: the task clocks
// of its threads, summed from /proc/<pid>/task/*/schedstat, the same clock
// selfCPU reads. Threads that have exited are not counted; the Go runtime
// keeps its threads for the life of the process.
func childCPU(pid string) time.Duration {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited after the directory was read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += time.Duration(ns)
		}
	}
	return total
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in MB; pid
// may be "self".
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %v", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// runtimeStats is a snapshot of this process's Go runtime counters.
type runtimeStats struct {
	allocBytes float64
	gcCPU      float64 // seconds
	gcCycles   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeStats {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	val := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), gcCycles: val(s[2].Value)}
}

// setRuntimePerOp sets the runtime.* layer metrics: the change between two
// snapshots divided by the operations run between them.
func (m metrics) setRuntimePerOp(a, b runtimeStats, ops int) {
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	m.set("runtime.alloc_mb", (b.allocBytes-a.allocBytes)/1e6/n, "MB")
	m.set("runtime.gc_cpu_s", (b.gcCPU-a.gcCPU)/n, "s")
	m.set("runtime.gc_cycles", (b.gcCycles-a.gcCycles)/n, "count")
}
