package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"e2ebatch/internal/loadgen"
)

// TestFidelityGolden pins the full fidelity report byte-for-byte at the
// cmd/fidelity defaults (seed 1, 150 ms). Unlike the sha256 figure goldens
// the report itself is stored in testdata, so a drift shows up as a
// readable diff: which workload's truth moved, which predictor's error,
// which hypothesis flipped. Run with E2E_GOLDEN_PRINT=1 to rewrite the
// golden from the current output instead of asserting.
func TestFidelityGolden(t *testing.T) {
	skipIfShort(t)
	path := filepath.Join("testdata", "fidelity_golden.txt")

	var buf bytes.Buffer
	WriteFidelity(&buf, Fidelity(DefaultCalib(), 150*time.Millisecond, 1))

	if os.Getenv("E2E_GOLDEN_PRINT") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fidelity report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestFidelityReportDeterministic renders the harness twice from scratch
// and requires byte-identical reports — the in-process replay property the
// golden alone cannot show (it would miss nondeterminism that happens to
// be stable across processes but not across invocations, e.g. map order
// feeding a sweep).
func TestFidelityReportDeterministic(t *testing.T) {
	skipIfShort(t)
	render := func() []byte {
		var buf bytes.Buffer
		out := Fidelity(DefaultCalib(), 40*time.Millisecond, 9)
		WriteFidelity(&buf, out)
		WriteFidelityBreakdown(&buf, out)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two Fidelity runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestZooReplayByteIdentical replays every zoo workload twice under the
// same seed and requires the tcpsim stream digests — a running 64-bit
// CRC-32C/CRC-32 digest over every byte the client sent and read, and the
// same on the server — to
// match exactly, along with the ground-truth latency distribution. This is
// the replayability contract the zoo documents: a workload is a pure
// function of (seed, index), so a rerun is not just statistically similar
// but the same bytes at the same virtual times.
func TestZooReplayByteIdentical(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	for i, w := range loadgen.Zoo(cal.KeySize, cal.ValSize) {
		w := w
		seed := int64(100 + i)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			run := func() *RunOut {
				return Run(RunSpec{
					Calib:        cal,
					Seed:         seed,
					Rate:         w.Rate,
					RateFn:       w.RateShape,
					Duration:     30 * time.Millisecond,
					BatchOn:      w.BatchOn,
					Workload:     w.NewMaker(seed),
					PreloadKeys:  w.PreloadKeys,
					SyscallBatch: w.SyscallBatch,
					WithHints:    w.WithHints,
				})
			}
			a, b := run(), run()
			if a.ClientConn.SentDigest != b.ClientConn.SentDigest ||
				a.ClientConn.ReadDigest != b.ClientConn.ReadDigest {
				t.Fatalf("client stream digests diverged: %x/%x vs %x/%x",
					a.ClientConn.SentDigest, a.ClientConn.ReadDigest,
					b.ClientConn.SentDigest, b.ClientConn.ReadDigest)
			}
			if a.ServerConn.SentDigest != b.ServerConn.SentDigest ||
				a.ServerConn.ReadDigest != b.ServerConn.ReadDigest {
				t.Fatalf("server stream digests diverged")
			}
			if a.ClientConn.Sends == 0 || a.ClientConn.BytesSent == 0 {
				t.Fatalf("no traffic flowed for %s", w.Name)
			}
			if got, want := a.Res.Latency.Count(), b.Res.Latency.Count(); got != want {
				t.Fatalf("completed count diverged: %d vs %d", got, want)
			}
			if a.Res.Latency.Mean() != b.Res.Latency.Mean() ||
				a.Res.Latency.Quantile(0.999) != b.Res.Latency.Quantile(0.999) {
				t.Fatalf("ground-truth latency diverged: %v vs %v",
					a.Res.Latency.Mean(), b.Res.Latency.Mean())
			}
			// Different seeds must actually change the stream for the
			// randomized members — guards against a maker ignoring its
			// seed. (Fixed-size makers legitimately replay the same bytes
			// at any seed; only the arrival times differ.)
			if w.Name == "heavy-tail" {
				c := Run(RunSpec{
					Calib: cal, Seed: seed + 1, Rate: w.Rate, Duration: 30 * time.Millisecond,
					Workload: w.NewMaker(seed + 1),
				})
				if c.ClientConn.SentDigest == a.ClientConn.SentDigest {
					t.Fatalf("heavy-tail stream identical across different seeds")
				}
			}
		})
	}
}

// TestFidelityScoresAllPredictors asserts the harness's acceptance shape:
// at least 6 workloads, every one scored by at least the estimator and the
// naive baseline, and every predictor producing a workload-level mean.
func TestFidelityScoresAllPredictors(t *testing.T) {
	skipIfShort(t)
	out := Fidelity(DefaultCalib(), 40*time.Millisecond, 3)
	if len(out.Points) < 6 {
		t.Fatalf("zoo too small: %d workloads", len(out.Points))
	}
	for _, pt := range out.Points {
		if pt.Truth <= 0 || pt.Completed == 0 {
			t.Fatalf("%s: no ground truth (truth=%v completed=%d)", pt.Workload.Name, pt.Truth, pt.Completed)
		}
		if !pt.Scored[PredEstimator] {
			t.Errorf("%s: estimator abstained", pt.Workload.Name)
		}
		if !pt.Scored[PredNaive] {
			t.Errorf("%s: naive baseline abstained", pt.Workload.Name)
		}
	}
	for p := Predictor(0); p < NumPredictors; p++ {
		if out.ScoredN[p] == 0 {
			t.Errorf("predictor %s scored nothing", p)
		}
	}
	if len(out.Hypotheses) < 5 {
		t.Fatalf("want >=5 hypotheses, got %d", len(out.Hypotheses))
	}
	for _, h := range out.Hypotheses {
		if h.Verdict != "CONFIRMED" && h.Verdict != "REFUTED" {
			t.Errorf("%s: verdict %q", h.ID, h.Verdict)
		}
		if h.Claim == "" || h.Evidence == "" {
			t.Errorf("%s: empty claim or evidence", h.ID)
		}
	}
}
