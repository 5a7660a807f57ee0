package tcpsim

import (
	"testing"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/sim"
)

// TestDigestKnownVectors pins the digest primitive against the published
// check values of both CRCs for "123456789" (CRC-32C 0xE3069283, CRC-32
// 0xCBF43926), so the replay seam can never silently become a different
// hash.
func TestDigestKnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0},
		{"123456789", 0xE3069283_CBF43926},
	}
	for _, c := range cases {
		if got := digest(0, []byte(c.in)); got != c.want {
			t.Errorf("digest(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
	// Incremental hashing over split inputs equals one-shot hashing —
	// the property Send/Read rely on.
	for cut := 0; cut <= 9; cut++ {
		in := []byte("123456789")
		if split := digest(digest(0, in[:cut]), in[cut:]); split != 0xE3069283_CBF43926 {
			t.Errorf("digest split at %d = %#x", cut, split)
		}
	}
}

// TestStreamDigestsTrackBytes drives a small echo exchange and checks the
// digest invariants: initialized to zero, updated by traffic,
// and — since TCP delivers the sent stream intact — each side's ReadDigest
// equal to the peer's SentDigest once everything is consumed.
func TestStreamDigestsTrackBytes(t *testing.T) {
	s := sim.New(5)
	cs, ss := NewStack(s, "client"), NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: time.Microsecond})
	cc, sc := Connect(cs, ss, link, DefaultConfig())

	if st := cc.Stats(); st.SentDigest != 0 || st.ReadDigest != 0 {
		t.Fatalf("fresh conn digests not zero: %+v", st)
	}

	var serverRead []byte
	sc.OnReadable(func() {
		for {
			chunk := sc.Read(4096)
			if len(chunk) == 0 {
				return
			}
			serverRead = append(serverRead, chunk...)
		}
	})
	payloads := [][]byte{[]byte("hello "), []byte("stream"), make([]byte, 3000)}
	var want uint64
	for _, p := range payloads {
		cc.Send(p)
		want = digest(want, p)
	}
	s.RunFor(10 * time.Millisecond)

	ccSt, scSt := cc.Stats(), sc.Stats()
	if ccSt.SentDigest != want {
		t.Fatalf("client SentDigest = %#x, want %#x", ccSt.SentDigest, want)
	}
	if scSt.ReadDigest != want {
		t.Fatalf("server ReadDigest = %#x, want sender's %#x", scSt.ReadDigest, want)
	}
	if len(serverRead) != 6+6+3000 {
		t.Fatalf("server read %d bytes", len(serverRead))
	}
	// The server sent nothing: its sent digest is untouched, as is the
	// client's read digest.
	if scSt.SentDigest != 0 || ccSt.ReadDigest != 0 {
		t.Fatalf("idle direction digests moved: %#x %#x", scSt.SentDigest, ccSt.ReadDigest)
	}
	// Different payload bytes produce a different digest even at equal
	// lengths — the property a byte counter lacks.
	s2 := sim.New(5)
	cs2, ss2 := NewStack(s2, "client"), NewStack(s2, "server")
	link2 := netem.NewLink(s2, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: time.Microsecond})
	cc2, _ := Connect(cs2, ss2, link2, DefaultConfig())
	cc2.Send([]byte("hellp "))
	cc2.Send([]byte("stream"))
	cc2.Send(make([]byte, 3000))
	s2.RunFor(10 * time.Millisecond)
	if cc2.Stats().SentDigest == want {
		t.Fatal("digest insensitive to payload bytes")
	}
}
