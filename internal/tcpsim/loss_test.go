package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/sim"
)

// lossyNet builds a topology with packet loss and RTO-based recovery.
func lossyNet(t *testing.T, seed int64, loss float64) (*sim.Sim, *Conn, *Conn) {
	t.Helper()
	s := sim.New(seed)
	a := NewStack(s, "a")
	b := NewStack(s, "b")
	for _, st := range []*Stack{a, b} {
		st.TxCosts, st.RxCosts = cpumodel.Costs{}, cpumodel.Costs{}
		st.AckTxCost, st.AckRxCost = 0, 0
	}
	link := netem.NewLink(s, "lossy", netem.Config{
		BitsPerSec:  10_000_000_000,
		Propagation: 5 * time.Microsecond,
		LossProb:    loss,
	})
	cfg := DefaultConfig()
	cfg.Nagle = false
	cfg.RTO = 2 * time.Millisecond
	ca, cb := Connect(a, b, link, cfg)
	return s, ca, cb
}

func TestLossRecoverySingleTransfer(t *testing.T) {
	s, ca, cb := lossyNet(t, 3, 0.2)
	var want bytes.Buffer
	var got bytes.Buffer
	cb.OnReadable(func() { got.Write(cb.Read(0)) })
	for i := 0; i < 100; i++ {
		chunk := payload(5000)
		want.Write(chunk)
		ca.Send(chunk)
		s.RunFor(200 * time.Microsecond)
	}
	s.RunUntil(s.Now().Add(30 * time.Second))
	got.Write(cb.Read(0))
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("lossy transfer corrupted: got %d bytes, want %d", got.Len(), want.Len())
	}
	if ca.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions despite 20% loss over ~400 packets")
	}
	if ca.InFlight() != 0 {
		t.Fatalf("in flight = %d after completion", ca.InFlight())
	}
}

func TestLossRecoveryBidirectionalStream(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, ca, cb := lossyNet(t, 8, 0.1)
	var sentA, gotB, sentB, gotA bytes.Buffer
	cb.OnReadable(func() { gotB.Write(cb.Read(0)) })
	ca.OnReadable(func() { gotA.Write(ca.Read(0)) })
	for i := 0; i < 60; i++ {
		ax := payload(1 + rng.Intn(8000))
		sentA.Write(ax)
		ca.Send(ax)
		bx := payload(1 + rng.Intn(3000))
		sentB.Write(bx)
		cb.Send(bx)
		s.RunFor(time.Duration(rng.Intn(500)) * time.Microsecond)
	}
	s.RunUntil(s.Now().Add(10 * time.Second))
	gotB.Write(cb.Read(0))
	gotA.Write(ca.Read(0))
	if !bytes.Equal(sentA.Bytes(), gotB.Bytes()) {
		t.Fatalf("a->b corrupted: %d vs %d bytes", sentA.Len(), gotB.Len())
	}
	if !bytes.Equal(sentB.Bytes(), gotA.Bytes()) {
		t.Fatalf("b->a corrupted: %d vs %d bytes", sentB.Len(), gotA.Len())
	}
}

func TestLossQueueAccountingBalanced(t *testing.T) {
	s, ca, cb := lossyNet(t, 5, 0.15)
	cb.OnReadable(func() { cb.Read(0) })
	total := 0
	for i := 0; i < 40; i++ {
		n := 500 + i*113
		total += n
		ca.Send(payload(n))
		s.RunFor(200 * time.Microsecond)
	}
	s.RunUntil(s.Now().Add(10 * time.Second))
	ua, _, _ := ca.Snapshots(UnitBytes)
	if ua.Total != int64(total) {
		t.Fatalf("unacked departures %d != sent %d (loss corrupted the counters)", ua.Total, total)
	}
	for u := 0; u < NumUnits; u++ {
		if sz, _, _ := ca.Instr().Sizes(Unit(u)); sz != 0 {
			t.Fatalf("unacked[%v] = %d after recovery", Unit(u), sz)
		}
		if _, ur, _ := cb.Instr().Sizes(Unit(u)); ur != 0 {
			t.Fatalf("unread[%v] = %d after recovery", Unit(u), ur)
		}
	}
}

// TestLossInflatesMeasuredResidency: retransmission delay must show up in
// the unacked queue's Little's-law latency — loss makes the estimate grow,
// it must not silently corrupt it.
func TestLossInflatesMeasuredResidency(t *testing.T) {
	run := func(loss float64) time.Duration {
		s, ca, cb := lossyNet(t, 11, loss)
		cb.OnReadable(func() { cb.Read(0) })
		start, _, _ := ca.Snapshots(UnitBytes)
		for i := 0; i < 50; i++ {
			ca.Send(payload(2000))
			s.RunFor(300 * time.Microsecond)
		}
		s.RunUntil(s.Now().Add(10 * time.Second))
		end, _, _ := ca.Snapshots(UnitBytes)
		a := end.Sub(start)
		if !a.Valid {
			t.Fatal("invalid interval")
		}
		return a.Latency
	}
	clean := run(0)
	lossy := run(0.25)
	if lossy < 3*clean {
		t.Fatalf("unacked latency clean=%v lossy=%v: recovery delay not reflected", clean, lossy)
	}
}

func TestNoRTOOnLosslessStaysQuiet(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.RTO = 2 * time.Millisecond
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(20000))
	s.RunUntil(sim.Time(time.Second))
	if ca.Stats().Retransmits != 0 {
		t.Fatalf("retransmits = %d on a lossless link", ca.Stats().Retransmits)
	}
	if cb.Readable() != 20000 {
		t.Fatalf("readable = %d", cb.Readable())
	}
}

func TestLosslessWithoutRTOStillPanicsOnGap(t *testing.T) {
	// The no-recovery contract remains: a lossy pipe without RTO is a
	// configuration error surfaced loudly.
	s := sim.New(2)
	a := NewStack(s, "a")
	b := NewStack(s, "b")
	link := netem.NewLink(s, "l", netem.Config{Propagation: time.Microsecond, LossProb: 0.5})
	cfg := DefaultConfig()
	cfg.Nagle = false
	ca, _ := Connect(a, b, link, cfg)
	defer func() {
		if recover() == nil {
			t.Skip("no gap materialized under this seed")
		}
	}()
	for i := 0; i < 50; i++ {
		ca.Send(payload(5000))
		s.RunFor(100 * time.Microsecond)
	}
	s.RunUntil(sim.Time(time.Second))
}

// TestLossOverlappingRetransmitKeepsNewTail loses the ACK for a delivered
// flush together with the flush after it, so the go-back-N retransmission
// overlaps bytes the receiver already holds. Only the new tail may be
// appended, copied from the right offset of the sender's send buffer.
func TestLossOverlappingRetransmitKeepsNewTail(t *testing.T) {
	s, ca, cb := lossyNet(t, 1, 0)
	rng := rand.New(rand.NewSource(1))
	first, second := make([]byte, 1000), make([]byte, 2000)
	rng.Read(first)
	rng.Read(second)

	ca.Send(first)
	s.RunFor(100 * time.Microsecond) // one segment: its ACK waits on the delayed-ACK timer
	if cb.Readable() != len(first) {
		t.Fatalf("setup: readable %d, want %d", cb.Readable(), len(first))
	}
	ca.tx.SetLossProb(0.999999)
	cb.tx.SetLossProb(0.999999)
	ca.Send(second)
	s.RunFor(time.Millisecond) // the second flush and the delayed ACK are dropped
	ca.tx.SetLossProb(0)
	cb.tx.SetLossProb(0)
	s.RunFor(20 * time.Millisecond) // the RTO resends [0, 3000)

	if ca.Stats().Retransmits == 0 || cb.Stats().DupPayloads == 0 {
		t.Fatalf("no overlapping retransmission: retransmits %d, dup payloads %d",
			ca.Stats().Retransmits, cb.Stats().DupPayloads)
	}
	if got, want := cb.Read(0), append(first, second...); !bytes.Equal(got, want) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(want))
	}
	if ca.InFlight() != 0 || ca.Stats().SentDigest != cb.Stats().ReadDigest {
		t.Fatalf("in flight %d, digests %#x/%#x", ca.InFlight(), ca.Stats().SentDigest, cb.Stats().ReadDigest)
	}
}
