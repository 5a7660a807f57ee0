package main

import (
	"math"
	"testing"
)

func TestQuantileCountsFailuresBeyondLimit(t *testing.T) {
	var h hist
	for v := int64(1); v <= 98; v++ {
		h.record(v) // exact buckets below 256 ns
	}
	if got := h.quantile(0.5, 2); got != 50 {
		t.Errorf("p50 with 2 failures = %v, want 50", got)
	}
	// 98 answered + 2 failed: rank 99 is a failure, so p99 is unbounded.
	if got := h.quantile(0.99, 2); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2 failures of 100 = %v, want +Inf", got)
	}
	if got := h.quantile(0.98, 2); got != 98 {
		t.Errorf("p98 with 2 failures = %v, want 98", got)
	}
	if got := h.quantile(0.99, 0); got != 98 {
		t.Errorf("p99 without failures = %v, want 98", got)
	}
	var empty hist
	if got := empty.quantile(0.5, 0); !math.IsNaN(got) {
		t.Errorf("empty p50 = %v, want NaN", got)
	}
	if got := empty.quantile(0.5, 1); !math.IsInf(got, 1) {
		t.Errorf("all-failed p50 = %v, want +Inf", got)
	}
}

func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	var h hist
	for i := 0; i < 1000; i++ {
		h.record(100_000 + int64(i)) // 100 µs .. 101 µs, bucket width 256 ns
	}
	p50 := h.quantile(0.5, 0)
	if math.Abs(p50-100_500)/100_500 > 0.004 {
		t.Errorf("p50 = %v, want within 0.4%% of 100500", p50)
	}
	if p99 := h.quantile(0.99, 0); p99 <= p50 || p99 > 101_300 {
		t.Errorf("p99 = %v, want in (p50, 101300]", p99)
	}
	if m := h.mean(); m != 100_499.5 {
		t.Errorf("mean = %v, want exact 100499.5", m)
	}
}

func TestHistBucketsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 256, 257, 1000, 123_456, 1 << 40, 1<<50 + 12345} {
		lo, w := histBucket(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d maps to bucket [%v, %v)", v, lo, lo+w)
		}
		if v >= 256 && w > lo/256 {
			t.Errorf("value %d: bucket width %v exceeds 1/256 of %v", v, w, lo)
		}
	}
}

func TestErrorRatioCountsUnanswered(t *testing.T) {
	cases := []struct {
		sent, answered, wrong uint64
		want                  float64
	}{
		{1000, 1000, 0, 0},
		{1000, 990, 0, 0.01},     // ten never answered
		{1000, 990, 5, 0.015},    // plus five answered wrongly
		{0, 0, 0, 0},             // nothing attempted
		{10, 12, 0, 0},           // more replies than sends cannot go negative
		{4, 0, 0, 1},             // nothing answered
		{200, 199, 1, 2.0 / 200}, // one lost, one mismatched
	}
	for _, c := range cases {
		if got := errorRatio(c.sent, c.answered, c.wrong); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("errorRatio(%d, %d, %d) = %v, want %v", c.sent, c.answered, c.wrong, got, c.want)
		}
	}
}

func TestPerRequestNormalisation(t *testing.T) {
	// 1.5 CPU-seconds over 30000 requests is 50 µs each.
	if got := perReq(1.5e6, 30000); got != 50 {
		t.Errorf("perReq = %v, want 50", got)
	}
	if got := perReq(1, 0); !math.IsNaN(got) {
		t.Errorf("perReq over no requests = %v, want NaN", got)
	}
	// Windows that completed nothing are skipped by the median.
	if got := median([]float64{perReq(3, 1), perReq(9, 0), perReq(10, 2), perReq(4, 1)}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"e2ebatch/internal/tcpsim.(*Conn).transmit":   "tcpsim",
		"e2ebatch/internal/tcpsim.fnv1a":              "tcpsim",
		"e2ebatch/internal/obs/span.(*Tracer).Finish": "obs",
		"e2ebatch/internal/kv.(*Engine).execute":      "kv",
		"e2ebatch/internal/sim.eventHeap.Less":        "sim",
		"runtime.mallocgc":                            "runtime.malloc",
		"runtime.mallocgcSmallNoscan":                 "runtime.malloc",
		"runtime.(*mspan).nextFreeIndex":              "runtime.malloc",
		"runtime.(*mspan).sweep":                      "runtime.gc",
		"runtime.memmove":                             "runtime.memmove",
		"runtime.scanobject":                          "runtime.gc",
		"runtime.gcDrain":                             "runtime.gc",
		"runtime.futex":                               "runtime.sched",
		"runtime.findRunnable":                        "runtime.sched",
		"runtime.nanotime1":                           "runtime.other",
		"internal/runtime/syscall.Syscall6":           "net.syscall",
		"syscall.Syscall":                             "net.syscall",
		"internal/poll.(*FD).Read":                    "net.syscall",
		"main.(*tcpConn).onComplete":                  "bench",
		"sort.insertionSortCmpFunc":                   "other",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStealShare(t *testing.T) {
	a, err := parseProcStat("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 35 || a.busy != 155 {
		t.Fatalf("parsed %+v, want total 1000 steal 35 busy 155", a)
	}
	// 1000 more ticks, 50 of them stolen: 5%. Guest ticks (field 9) are
	// already inside user and must not be added to the total.
	b, err := parseProcStat("cpu  400 0 100 1400 10 0 5 85 90 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := stealShare(a, b); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("stealShare = %v, want 0.05", got)
	}
	// Of the 300+50+50 = 400 ticks the machine wanted, 50 were stolen.
	if got := stolenShare(a, b); math.Abs(got-50.0/400) > 1e-12 {
		t.Errorf("stolenShare = %v, want 0.125", got)
	}
	if got := stolenShare(b, b); got != 0 {
		t.Errorf("stolenShare over no elapsed ticks = %v, want 0", got)
	}
	if got := stealShare(b, b); got != 0 {
		t.Errorf("stealShare over no elapsed ticks = %v, want 0", got)
	}
	if _, err := parseProcStat("intr 1 2 3\n"); err == nil {
		t.Error("parseProcStat without a cpu line: want error")
	}
}
