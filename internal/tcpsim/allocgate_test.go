//go:build !race

// Allocation gate for the segment path: one steady-state message through
// Send, segmenting, the link, delivery and ACKs, then Read. The byte path
// copies each payload byte once, from the sender's send buffer into the
// receiver's reused receive buffer, so per-message allocation is a few
// small bookkeeping objects and no payload-sized buffers. Excluded under
// -race because the race runtime allocates shadow state that would be
// charged to the tracked code.

package tcpsim

import (
	"runtime"
	"testing"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/sim"
)

// perRun returns the heap bytes and allocations one call of f costs,
// averaged over runs calls after warm calls — testing.AllocsPerRun plus the
// byte count it leaves out.
func perRun(warm, runs int, f func()) (bytes, allocs uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < warm; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs), (after.Mallocs - before.Mallocs) / uint64(runs)
}

func TestAllocGateTCPSimMessage(t *testing.T) {
	const (
		msgSize = 16 << 10
		// maxBytes is well under one payload: a copy of the message
		// anywhere on the path would blow it.
		maxBytes = 2 << 10
		// maxAllocs is the count before the byte path went one-copy
		// (34); the rest is segment, closure and event bookkeeping.
		maxAllocs = 34
	)
	s := sim.New(1)
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 10_000_000_000, Propagation: 5 * time.Microsecond})
	cfg := DefaultConfig()
	cfg.Nagle = false
	cc, sc := Connect(NewStack(s, "client"), NewStack(s, "server"), link, cfg)
	msg := payload(msgSize)
	short := 0
	bytes, allocs := perRun(50, 500, func() {
		cc.Send(msg)
		s.Run()
		if got := sc.Read(0); len(got) != msgSize {
			short++
		}
	})
	if short > 0 {
		t.Fatalf("%d messages arrived short", short)
	}
	t.Logf("%d B and %d allocs per %d B message", bytes, allocs, msgSize)
	if bytes > maxBytes {
		t.Errorf("%d B allocated per message, want <= %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("%d allocs per message, want <= %d", allocs, maxAllocs)
	}
}
