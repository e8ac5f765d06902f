package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// The host-speed probe: a fixed amount of random read-modify-write over
// an 8 MiB table, indexed by a splitmix64 hash. It calls no repository
// code, so no change to the program can move it. What moves it is the
// host: on a shared VM, cache and memory-bandwidth contention from
// neighbours slows the probe and the workloads alike, by up to a half
// within an hour. Reported figures are scaled by a power of
// refProbeRate / probe rate (hostFactor), which cancels most of that
// drift.
const (
	probeWords = 1 << 20 // 8 MiB of uint64: well past the per-core L2
	probeOps   = 1 << 23 // about 75 ms per pass on the reference host

	// refProbeRate is the reference host speed in million probe updates
	// per second: the median probe rate measured on the 2-core Xeon VM
	// the bounds in BENCHMARK.json were set on. Scaled figures are "as if
	// the host ran at this speed".
	refProbeRate = 110.0

	// maxProbeCPURatio bounds process CPU time over wall time while the
	// probe runs. The probe is single-threaded, so a ratio well above 1
	// means other goroutines were computing (a server that leaves work
	// spinning between jobs), which would slow the probe and inflate the
	// scaled rates.
	maxProbeCPURatio = 1.25
)

type probe struct {
	table []uint64
	state uint64
}

func newProbe() *probe { return &probe{table: make([]uint64, probeWords), state: 1} }

// probeSample is one probe pass: its rate in million updates per second
// and the process's CPU time over wall time during the pass.
type probeSample struct {
	Rate     float64
	CPURatio float64
}

// run collects garbage first, so a GC cycle left over from the previous
// job does not run beside the probe, then makes one timed pass.
func (p *probe) run() probeSample {
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	x, t := p.state, p.table
	for i := 0; i < probeOps; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		t[z&(probeWords-1)] += z
	}
	p.state = x
	wall := time.Since(t0).Seconds()
	cpu := (cpuTime() - c0).Seconds()
	return probeSample{Rate: probeOps / wall / 1e6, CPURatio: cpu / wall}
}

// check reports a probe pass during which the process did other work.
func (s probeSample) check() error {
	if s.CPURatio > maxProbeCPURatio {
		return fmt.Errorf("process CPU time was %.2fx wall time during the host probe (limit %.2f): goroutines kept running between jobs", s.CPURatio, maxProbeCPURatio)
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo describes the machine and the run's load shape.
type hostInfo struct {
	NProc      int
	GoMaxProcs int
	CPUModel   string
	L2, L3     string
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), CPUModel: "unknown", L2: "unknown", L3: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			break
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			h.L2 = strings.TrimSpace(string(size))
		case "3":
			h.L3 = strings.TrimSpace(string(size))
		}
	}
	return h
}
