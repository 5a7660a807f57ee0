package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord travels with every result, so a run disturbed by the
// hypervisor or made on another machine reads as such.
type hostRecord struct {
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"nproc"`
	CPUModel          string  `json:"cpu_model"`
	Kernel            string  `json:"kernel"`
	GoVersion         string  `json:"go_version"`
	StealPct          float64 `json:"steal_pct"`
	SleepOvershootP50 float64 `json:"sleep_overshoot_p50_us"`
	SleepOvershootP99 float64 `json:"sleep_overshoot_p99_us"`
}

func probeHost() hostRecord {
	h := hostRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	h.SleepOvershootP50, h.SleepOvershootP99 = sleepOvershoot()
	return h
}

// sleepOvershoot measures how late a short time.Sleep wakes, in µs: the
// reason the real-socket workloads are closed loops rather than paced.
func sleepOvershoot() (p50, p99 float64) {
	const want = 50 * time.Microsecond
	over := make([]float64, 200)
	for i := range over {
		t0 := time.Now()
		time.Sleep(want)
		over[i] = float64(time.Since(t0)-want) / 1e3
	}
	sort.Float64s(over)
	return over[len(over)/2], over[len(over)*99/100]
}

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	t, err := parseProcStat(string(b))
	if err != nil {
		return cpuTimes{}
	}
	return t
}

// usage is a reading of the process counters a window is charged with.
type usage struct {
	at         time.Time
	cpu        time.Duration // user + system, all threads
	allocBytes uint64
	mallocs    uint64
	gcs        uint64
	rss        uint64 // resident bytes
}

// readUsage reads the process's CPU time and the runtime's exact
// allocation counters (MemStats stops the world for a moment, so it is
// read only at window edges).
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcs:        uint64(ms.NumGC),
		rss:        residentBytes(),
	}
}

// residentBytes reads the process's resident set from /proc/self/statm
// (0 where that is unavailable, which median skips as no reading).
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// gcPauseP99 reads the runtime's GC stop-the-world pause distribution and
// returns its p99 in µs (cumulative since start: the traced run reads it
// after its own pass).
func gcPauseP99() float64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := (n*99 + 99) / 100
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			ub := h.Buckets[i+1] // bucket upper bound
			if math.IsInf(ub, 1) {
				ub = h.Buckets[i]
			}
			return ub * 1e6
		}
	}
	return 0
}
