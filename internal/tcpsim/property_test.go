package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// TestPropertyStreamIntegrity drives random send sizes, random mode
// toggles, random cork thresholds and random read patterns through the
// connection and asserts the byte stream arrives intact and in order, and
// the queue accounting ends balanced — the core contracts everything else
// rests on.
func TestPropertyStreamIntegrity(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := sim.New(int64(trial) * 17)
		a := NewStack(s, "a")
		b := NewStack(s, "b")
		link := netem.NewLink(s, "lnk", netem.Config{
			BitsPerSec:  10_000_000_000,
			Propagation: time.Duration(1+rng.Intn(20)) * time.Microsecond,
			Jitter:      time.Duration(rng.Intn(5)) * time.Microsecond,
		})
		cfg := DefaultConfig()
		cfg.Nagle = rng.Intn(2) == 0
		cfg.DelAckTimeout = time.Duration(50+rng.Intn(500)) * time.Microsecond
		cfg.RecvBuf = int64(64<<10 + rng.Intn(1<<20))
		ca, cb := Connect(a, b, link, cfg)

		var sent, received bytes.Buffer
		cb.OnReadable(func() {
			// Random partial reads.
			for cb.Readable() > 0 && rng.Intn(4) != 0 {
				received.Write(cb.Read(1 + rng.Intn(8000)))
			}
		})

		next := byte(0)
		for op := 0; op < 200; op++ {
			switch rng.Intn(6) {
			case 0, 1, 2: // send a random chunk
				n := 1 + rng.Intn(20000)
				chunk := make([]byte, n)
				for i := range chunk {
					chunk[i] = next
					next++
				}
				sent.Write(chunk)
				ca.Send(chunk)
			case 3: // toggle mode
				ca.SetNoDelay(rng.Intn(2) == 0)
			case 4: // adjust cork
				ca.SetCorkBytes(rng.Intn(128 << 10))
			case 5: // let time pass
			}
			s.RunFor(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
		ca.SetNoDelay(true) // flush any held tail
		s.RunFor(500 * time.Millisecond)
		for cb.Readable() > 0 {
			received.Write(cb.Read(0))
			s.RunFor(10 * time.Millisecond)
		}

		if !bytes.Equal(sent.Bytes(), received.Bytes()) {
			t.Fatalf("trial %d: stream corrupted: sent %d bytes, received %d",
				trial, sent.Len(), received.Len())
		}

		// Queue accounting must balance: everything sent was acked and
		// read, so every tracked queue is empty in every unit.
		for u := 0; u < NumUnits; u++ {
			if ua, _, _ := ca.Instr().Sizes(Unit(u)); ua != 0 {
				t.Fatalf("trial %d: unacked[%v] = %d after quiesce", trial, Unit(u), ua)
			}
			if _, ur, _ := cb.Instr().Sizes(Unit(u)); ur != 0 {
				t.Fatalf("trial %d: unread[%v] = %d after quiesce", trial, Unit(u), ur)
			}
			if _, _, ad := cb.Instr().Sizes(Unit(u)); ad != 0 {
				t.Fatalf("trial %d: ackdelay[%v] = %d after quiesce", trial, Unit(u), ad)
			}
		}

		// Byte-unit totals: departures from unacked == bytes sent; from
		// unread == bytes read.
		ua, _, _ := ca.Snapshots(UnitBytes)
		if ua.Total != int64(sent.Len()) {
			t.Fatalf("trial %d: unacked departures %d != sent %d", trial, ua.Total, sent.Len())
		}
		_, urB, _ := cb.Snapshots(UnitBytes)
		if urB.Total != int64(received.Len()) {
			t.Fatalf("trial %d: unread departures %d != received %d", trial, urB.Total, received.Len())
		}
	}
}

// TestPropertyLossyStreamBuffers drives seeded random Send and Read(max)
// sizes in both directions over a lossy link with go-back-N recovery, GRO
// on and off. Retransmissions and the receiver's copy are served from the
// sender's one send buffer, so besides stream integrity it checks, after
// every step, that the buffers agree with the queue accounting, and at the
// end that each side's SentDigest equals the peer's ReadDigest.
func TestPropertyLossyStreamBuffers(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := sim.New(int64(trial)*31 + 7)
		link := netem.NewLink(s, "lossy", netem.Config{
			BitsPerSec:  10_000_000_000,
			Propagation: time.Duration(1+rng.Intn(20)) * time.Microsecond,
			LossProb:    0.02 + 0.28*rng.Float64(),
		})
		cfg := DefaultConfig()
		cfg.Nagle = rng.Intn(2) == 0
		cfg.GRO = trial%2 == 0
		cfg.RTO = 2 * time.Millisecond
		cfg.RecvBuf = int64(32<<10 + rng.Intn(256<<10))
		ca, cb := Connect(NewStack(s, "a"), NewStack(s, "b"), link, cfg)
		conns := [2]*Conn{ca, cb}

		var sent, received [2]bytes.Buffer
		read := func(i int) {
			max := 0
			if rng.Intn(3) != 0 {
				max = 1 + rng.Intn(12000)
			}
			received[i].Write(conns[i].Read(max))
		}
		for i := range conns {
			conns[i].OnReadable(func() {
				for conns[i].Readable() > 0 && rng.Intn(4) != 0 {
					read(i)
				}
			})
		}
		check := func(op int) {
			t.Helper()
			for i, c := range conns {
				unsent, inflight := c.Unsent(), c.InFlight()
				unacked, unread, _ := c.Instr().Sizes(UnitBytes)
				switch {
				case unsent < 0 || inflight < 0:
					t.Fatalf("trial %d op %d conn %d: unsent %d, in flight %d", trial, op, i, unsent, inflight)
				case unacked != unsent+inflight:
					t.Fatalf("trial %d op %d conn %d: unacked queue %d != unsent %d + in flight %d",
						trial, op, i, unacked, unsent, inflight)
				case int64(c.Readable()) != unread || int64(c.Readable()) != c.rcvNxt-c.rqStart:
					t.Fatalf("trial %d op %d conn %d: readable %d, unread queue %d, received-read %d",
						trial, op, i, c.Readable(), unread, c.rcvNxt-c.rqStart)
				case c.rqStart != int64(received[i].Len()):
					t.Fatalf("trial %d op %d conn %d: read offset %d != bytes read %d", trial, op, i, c.rqStart, received[i].Len())
				case c.sndUna > c.peer.rcvNxt || c.peer.rcvNxt > c.sndNxt:
					t.Fatalf("trial %d op %d conn %d: peer received %d outside [sndUna %d, sndNxt %d]",
						trial, op, i, c.peer.rcvNxt, c.sndUna, c.sndNxt)
				case c.sndEnd() != int64(sent[i].Len()):
					t.Fatalf("trial %d op %d conn %d: send buffer ends at %d, app sent %d", trial, op, i, c.sndEnd(), sent[i].Len())
				}
			}
		}

		for op := 0; op < 150; op++ {
			i := rng.Intn(2)
			switch rng.Intn(4) {
			case 0, 1:
				chunk := make([]byte, 1+rng.Intn(24000))
				rng.Read(chunk)
				sent[i].Write(chunk)
				conns[i].Send(chunk)
			case 2:
				if conns[i].Readable() > 0 {
					read(i)
				}
			case 3:
				conns[i].SetNoDelay(rng.Intn(2) == 0)
			}
			s.RunFor(time.Duration(rng.Intn(400)) * time.Microsecond)
			check(op)
		}
		for _, c := range conns {
			c.SetNoDelay(true)
		}
		s.RunFor(30 * time.Second)
		for i, c := range conns {
			for c.Readable() > 0 {
				received[i].Write(c.Read(0))
				s.RunFor(10 * time.Millisecond)
			}
		}
		check(-1)

		for i, c := range conns {
			peer := conns[1-i]
			if !bytes.Equal(sent[i].Bytes(), received[1-i].Bytes()) {
				t.Fatalf("trial %d: stream %d corrupted: sent %d bytes, received %d",
					trial, i, sent[i].Len(), received[1-i].Len())
			}
			if c.Stats().SentDigest != peer.Stats().ReadDigest {
				t.Fatalf("trial %d: conn %d SentDigest %#x != peer ReadDigest %#x",
					trial, i, c.Stats().SentDigest, peer.Stats().ReadDigest)
			}
			if c.InFlight() != 0 || c.Unsent() != 0 {
				t.Fatalf("trial %d: conn %d not drained: in flight %d, unsent %d", trial, i, c.InFlight(), c.Unsent())
			}
		}
		if ca.Stats().Retransmits+cb.Stats().Retransmits == 0 {
			t.Fatalf("trial %d: no retransmissions on a lossy link", trial)
		}
	}
}

// TestPropertyUnackedLatencyNonNegative checks GetAvgs over random windows
// of a live connection never yields negative latency or throughput.
func TestPropertyUnackedLatencyNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := sim.New(123)
	a := NewStack(s, "a")
	b := NewStack(s, "b")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	ca, cb := Connect(a, b, link, DefaultConfig())
	cb.OnReadable(func() { cb.Read(0) })

	var prev [NumUnits][3]qstate.Snapshot
	snap := func(u Unit) [3]qstate.Snapshot {
		x, y, z := ca.Snapshots(u)
		return [3]qstate.Snapshot{x, y, z}
	}
	for u := 0; u < NumUnits; u++ {
		prev[u] = snap(Unit(u))
	}
	for i := 0; i < 300; i++ {
		ca.Send(make([]byte, 1+rng.Intn(30000)))
		s.RunFor(time.Duration(1+rng.Intn(200)) * time.Microsecond)
		for u := 0; u < NumUnits; u++ {
			cur := snap(Unit(u))
			for qi := 0; qi < 3; qi++ {
				avgs := qstate.GetAvgs(prev[u][qi], cur[qi])
				if avgs.Latency < 0 || avgs.Throughput < 0 || avgs.Q < 0 {
					t.Fatalf("negative averages: %+v (unit %v queue %d)", avgs, Unit(u), qi)
				}
			}
			prev[u] = cur
		}
	}
}
