package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// histSub is log2 of the sub-buckets per power of two in hist: a bucket is
// at most 1/256 of its lower bound wide (< 0.4%), values under 256 ns are
// exact.
const histSub = 8

// hist is a log-linear latency histogram over nanoseconds. Recording never
// allocates, so the measured window's allocation counts are the program's
// own; quantiles interpolate by rank inside the bucket, so they move with
// every sample instead of snapping to bucket edges.
type hist struct {
	counts [(64 - histSub + 1) << histSub]uint32
	n      uint64
	sum    float64
}

func histIndex(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSub - 1
	return (e+1)<<histSub + int(v>>uint(e)) - 1<<histSub
}

// histBucket returns bucket i's lowest value and its width.
func histBucket(i int) (lo, width float64) {
	if i < 1<<histSub {
		return float64(i), 1
	}
	e := i>>histSub - 1
	m := uint64(i&(1<<histSub-1) + 1<<histSub)
	return float64(m << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds of the recorded samples
// plus failed requests, which count as beyond any limit: once the rank falls
// among the failures the result is +Inf. With no samples and no failures it
// is NaN.
func (h *hist) quantile(q float64, failed uint64) float64 {
	total := h.n + failed
	if total == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		return math.Inf(1)
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+uint64(c) >= rank {
			lo, w := histBucket(i)
			if w == 1 {
				return lo
			}
			return lo + w*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	return math.Inf(1)
}

// median returns the median of xs, ignoring NaNs (NaN if none remain).
func median(xs []float64) float64 {
	v := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// perReq divides a window's total by the requests it completed; a window
// that completed nothing has no per-request cost (NaN), which median skips.
func perReq(total float64, reqs uint64) float64 {
	if reqs == 0 {
		return math.NaN()
	}
	return total / float64(reqs)
}

// rssMB converts a resident-set reading to MB; a missing reading (0) is NaN.
func rssMB(b uint64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(b) / 1e6
}

// errorRatio is failed requests over attempted: every request sent but
// never answered counts as failed, on top of those answered wrongly.
func errorRatio(sent, answered, wrong uint64) float64 {
	if sent == 0 {
		return 0
	}
	unanswered := uint64(0)
	if answered < sent {
		unanswered = sent - answered
	}
	return float64(unanswered+wrong) / float64(sent)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	busy, steal, total uint64
}

// parseProcStat reads the aggregate cpu line. Its first eight fields are
// user nice system idle iowait irq softirq steal; guest time is already
// included in user and nice, so it is not added again.
func parseProcStat(stat string) (cpuTimes, error) {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var t cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
			}
			t.total += v
			switch i {
			case 4, 5: // idle, iowait
			case 8:
				t.steal = v
			default:
				t.busy += v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealShare is the share of all CPU time between two readings that the
// hypervisor gave to someone else.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stolenShare is the share of the CPU time this machine wanted between two
// readings that the hypervisor took instead. Steal only accrues while a
// virtual CPU has work, so this is the share by which the hypervisor
// stretched the wall time of work running then.
func stolenShare(a, b cpuTimes) float64 {
	want := (b.steal - a.steal) + (b.busy - a.busy)
	if b.total <= a.total || want == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(want)
}

// runtimeGroups maps leaf functions of package runtime (name after
// "runtime.") to the runtime layer their time belongs to, by prefix; the
// first match wins, so more specific prefixes come first.
var runtimeGroups = []struct{ prefix, group string }{
	{"(*mspan).sweep", "runtime.gc"},
	{"(*sweepLocked)", "runtime.gc"},
	{"memmove", "runtime.memmove"},
	{"typedmemmove", "runtime.memmove"},
	{"typedslicecopy", "runtime.memmove"},
	{"malloc", "runtime.malloc"},
	{"newobject", "runtime.malloc"},
	{"makeslice", "runtime.malloc"},
	{"growslice", "runtime.malloc"},
	{"rawbyteslice", "runtime.malloc"},
	{"rawstring", "runtime.malloc"},
	{"slicebytetostring", "runtime.malloc"},
	{"nextFreeFast", "runtime.malloc"},
	{"memclrNoHeapPointers", "runtime.malloc"},
	{"heapSetType", "runtime.malloc"},
	{"(*mcache)", "runtime.malloc"},
	{"(*mcentral)", "runtime.malloc"},
	{"(*mheap)", "runtime.malloc"},
	{"(*mspan)", "runtime.malloc"},
	{"(*pageAlloc)", "runtime.malloc"},
	{"gc", "runtime.gc"},
	{"scan", "runtime.gc"},
	{"greyobject", "runtime.gc"},
	{"findObject", "runtime.gc"},
	{"markroot", "runtime.gc"},
	{"markBits", "runtime.gc"},
	{"(*markBits)", "runtime.gc"},
	{"(*gcWork)", "runtime.gc"},
	{"(*gcBits)", "runtime.gc"},
	{"wbBuf", "runtime.gc"},
	{"bulkBarrier", "runtime.gc"},
	{"sweepone", "runtime.gc"},
	{"bgsweep", "runtime.gc"},
	{"spanOf", "runtime.gc"},
	{"typePointers", "runtime.gc"},
	{"(*typePointers)", "runtime.gc"},
	{"(*lfstack)", "runtime.gc"},
	{"schedule", "runtime.sched"},
	{"findRunnable", "runtime.sched"},
	{"park_m", "runtime.sched"},
	{"gopark", "runtime.sched"},
	{"goready", "runtime.sched"},
	{"ready", "runtime.sched"},
	{"futex", "runtime.sched"},
	{"netpoll", "runtime.sched"},
	{"mcall", "runtime.sched"},
	{"runq", "runtime.sched"},
	{"stealWork", "runtime.sched"},
	{"usleep", "runtime.sched"},
	{"note", "runtime.sched"},
	{"lock2", "runtime.sched"},
	{"unlock2", "runtime.sched"},
	{"execute", "runtime.sched"},
	{"casgstatus", "runtime.sched"},
	{"wakep", "runtime.sched"},
	{"startm", "runtime.sched"},
	{"stopm", "runtime.sched"},
	{"handoffp", "runtime.sched"},
	{"gosched", "runtime.sched"},
	{"goschedImpl", "runtime.sched"},
	{"resetspinning", "runtime.sched"},
	{"chansend", "runtime.sched"},
	{"chanrecv", "runtime.sched"},
	{"selectgo", "runtime.sched"},
	{"semacquire", "runtime.sched"},
	{"semrelease", "runtime.sched"},
	{"entersyscall", "runtime.sched"},
	{"exitsyscall", "runtime.sched"},
	{"reentersyscall", "runtime.sched"},
	{"procyield", "runtime.sched"},
	{"osyield", "runtime.sched"},
	{"mPark", "runtime.sched"},
	{"injectglist", "runtime.sched"},
	{"sysmon", "runtime.sched"},
	{"retake", "runtime.sched"},
	{"(*timers)", "runtime.sched"},
}

// moduleOf maps a profile sample's leaf function to the layer it bills:
// the repository package under internal/ ("tcpsim", with obs/span folded
// into "obs"), a runtime group ("runtime.malloc", "runtime.memmove",
// "runtime.gc", "runtime.sched", "runtime.other"), "net.syscall" for the
// socket path from package net down to the system call, "bench" for the
// benchmark itself and "other" for the rest of the standard library.
func moduleOf(fn string) string {
	const repo = "e2ebatch/internal/"
	switch {
	case strings.HasPrefix(fn, repo):
		rest := fn[len(repo):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "syscall."),
		strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."),
		strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "net."):
		return "net.syscall"
	case strings.HasPrefix(fn, "runtime."):
		name := fn[len("runtime."):]
		for _, g := range runtimeGroups {
			if strings.HasPrefix(name, g.prefix) {
				return g.group
			}
		}
		return "runtime.other"
	}
	return "other"
}
