package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/metrics"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/tcpsim"
)

// simWorkload drives the simulated testbed through figures.Run: one
// client/server pair, Poisson SETs at a fixed offered rate, estimate-driven
// ε-greedy toggling on, all on the calling goroutine.
type simWorkload struct {
	valSize int
	rate    float64
}

const (
	keySize = 16
	simKeys = 64
	simVals = 8
	// simSegment is the virtual length of one figures.Run; the measured
	// window runs segments back to back until its wall time is up, and
	// each segment is one sample of every per-window metric.
	simSegment = 200 * time.Millisecond
	// simWarm is the virtual length of the set-up's warm-up run.
	simWarm = 20 * time.Millisecond
	// simSetupEvery spaces the set-ups timed between segments.
	simSetupEvery = time.Second
)

var setCmd = []byte("SET")

// procs is 1: the simulator runs on one goroutine, and a second P would
// only run the runtime's idle-priority GC mark workers, whose CPU time
// follows how busy the host's other CPU is rather than the program (it
// spread cpu_us_per_req by a third between runs of the same code).
func (simWorkload) procs() int { return 1 }

// inputs are the keys and values every request draws from, all made from
// the workload seed.
type inputs struct {
	keys, vals [][]byte
}

func genInputs(seed int64, nKeys, nVals, valSize int) inputs {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(valSize)))
	in := inputs{keys: make([][]byte, nKeys), vals: make([][]byte, nVals)}
	for i := range in.keys {
		in.keys[i] = randBytes(rng, keySize, true)
	}
	for i := range in.vals {
		in.vals[i] = randBytes(rng, valSize, false)
	}
	return in
}

// randBytes returns n seeded bytes; printable ones for keys.
func randBytes(rng *rand.Rand, n int, printable bool) []byte {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		if printable {
			b[i] = alnum[rng.IntN(len(alnum))]
		} else {
			b[i] = byte(rng.Uint32())
		}
	}
	return b
}

// splitmix64 scrambles a counter into an independent-looking word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// maker returns the segment's RequestMaker: request i's key and value are
// a pure function of (segment seed, i), so a rerun issues the same bytes.
func (in inputs) maker(segSeed int64) loadgen.RequestMaker {
	return func(i uint64) ([]byte, int) {
		h := splitmix64(uint64(segSeed)*0x100000001b3 ^ i)
		k := in.keys[h%uint64(len(in.keys))]
		v := in.vals[(h>>32)%uint64(len(in.vals))]
		return resp.AppendCommand(nil, setCmd, k, v), loadgen.KindSet
	}
}

// simSegOut is what one segment contributes, and what the rerun of a
// segment must reproduce exactly.
type simSegOut struct {
	issued, completed, dropped uint64
	lat                        metrics.Histogram // loadgen's post-warm-up record
	est                        [tcpsim.NumUnits]core.Estimate
	digests                    [4]uint64
	histSum                    float64
}

// simTracer holds the traced pass's spans; nil when tracing is off.
type simTracer struct {
	base                      time.Time
	runs, makers, reqs, ticks *spanBuf
	seg                       uint32
	lastTick                  time.Time
}

// ObserveTick makes simTracer the RunSpec.Observer: each span covers the
// wall time spent simulating one decision interval.
func (t *simTracer) ObserveTick(now qstate.Time, r engine.TickResult) {
	wall := time.Now()
	if !t.lastTick.IsZero() {
		t.ticks.add(traceEvent{Name: "Observer", Cat: "engine", Ph: "X", Pid: pidWall, Tid: 1,
			Ts: usSince(t.base, t.lastTick), Dur: usSince(t.lastTick, wall),
			Args: traceArgs{ReqID: uint64(now), Conn: t.seg, Parent: "figures.Run",
				EstUs: float64(r.Estimate.Latency) / 1e3}})
	}
	t.lastTick = wall
}

func (w simWorkload) spec(in inputs, segSeed int64, dur time.Duration, h *hist, tr *simTracer) figures.RunSpec {
	cal := figures.DefaultCalib()
	cal.ValSize = w.valSize
	mk := in.maker(segSeed)
	warm := int64(dur / 5) // loadgen's warm-up: samples issued earlier are dropped
	spec := figures.RunSpec{
		Calib:    cal,
		Seed:     segSeed,
		Rate:     w.rate,
		Duration: dur,
		Dynamic:  figures.DefaultDynamicSpec(cal.SLO),
		Workload: mk,
		OnComplete: func(_ uint64, sched, done int64) {
			if sched >= warm {
				h.record(done - sched)
			}
		},
	}
	if tr != nil {
		spec.Workload = func(i uint64) ([]byte, int) {
			t0 := time.Now()
			wire, kind := mk(i)
			tr.makers.add(traceEvent{Name: "RequestMaker", Cat: "resp", Ph: "X", Pid: pidWall, Tid: 1,
				Ts: usSince(tr.base, t0), Dur: usSince(t0, time.Now()),
				Args: traceArgs{ReqID: i, Conn: tr.seg, Parent: "figures.Run"}})
			return wire, kind
		}
		spec.OnComplete = func(id uint64, sched, done int64) {
			if sched >= warm {
				h.record(done - sched)
			}
			tr.reqs.add(traceEvent{Name: "request", Cat: "loadgen", Ph: "X", Pid: pidVirtual, Tid: tr.seg,
				Ts: float64(sched) / 1e3, Dur: float64(done-sched) / 1e3,
				Args: traceArgs{ReqID: id, Conn: tr.seg}})
		}
		spec.Observer = tr
	}
	return spec
}

func segOut(out *figures.RunOut, h *hist) simSegOut {
	return simSegOut{
		issued:    out.Res.Issued,
		completed: out.Res.Completed,
		dropped:   out.Res.Dropped,
		lat:       out.Res.Latency,
		est:       out.Est,
		digests: [4]uint64{out.ClientConn.SentDigest, out.ClientConn.ReadDigest,
			out.ServerConn.SentDigest, out.ServerConn.ReadDigest},
		histSum: h.sum,
	}
}

func (w simWorkload) run(cfg runCfg) (*runResult, error) {
	res := &runResult{layer: map[string]float64{}}
	var in inputs
	var h hist
	setUp := func() error {
		t0 := time.Now()
		in = genInputs(cfg.seed, simKeys, simVals, w.valSize)
		h = hist{}
		out := figures.Run(w.spec(in, cfg.seed, simWarm, &h, nil))
		if out.Res.Dropped != 0 || out.Res.Completed == 0 {
			return fmt.Errorf("warm-up run dropped %d of %d requests", out.Res.Dropped, out.Res.Issued)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		return nil
	}
	setupCPU := readCPUTimes()
	for i := 0; i < cfg.setups; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	lastSetup := time.Now()

	var tr *simTracer
	if cfg.traced {
		tr = &simTracer{base: cfg.base, runs: newSpanBuf(4096), makers: newSpanBuf(8192),
			reqs: newSpanBuf(8192), ticks: newSpanBuf(8192)}
		res.spans = []*spanBuf{tr.runs, tr.makers, tr.reqs, tr.ticks}
	}

	var (
		first                                     simSegOut
		segs, completed, segments, flushes, pAcks float64
		exchanges, holds, srvReqs, srvBatches     float64
		ticks, degraded, valid, onTicks, switches float64
	)
	stat0 := readCPUTimes()
	start := time.Now()
	for seg := 0; seg == 0 || time.Since(start) < cfg.seconds; seg++ {
		segSeed := cfg.seed*1000 + int64(seg)
		h = hist{}
		if tr != nil {
			tr.seg = uint32(seg)
			tr.lastTick = time.Time{}
		}
		spec := w.spec(in, segSeed, simSegment, &h, tr)
		c0, u0 := readCPUTimes(), readUsage()
		out := figures.Run(spec)
		u1, c1 := readUsage(), readCPUTimes()
		if tr != nil {
			tr.runs.add(traceEvent{Name: "figures.Run", Cat: "figures", Ph: "X", Pid: pidWall, Tid: 1,
				Ts: usSince(cfg.base, u0.at), Dur: usSince(u0.at, u1.at), Args: traceArgs{Conn: uint32(seg)}})
		}
		so := segOut(out, &h)
		if seg == 0 {
			first = so
		}
		res.attempted += so.issued
		res.answered += so.completed
		if so.lat.Count() != h.n {
			res.wrong += so.issued
			res.checks = append(res.checks, fmt.Sprintf("segment %d: OnComplete saw %d post-warm-up samples, loadgen %d", seg, h.n, so.lat.Count()))
		}
		res.samples += h.n
		win := window{
			wall:    u1.at.Sub(u0.at).Seconds(),
			stolen:  stolenShare(c0, c1),
			reqs:    so.completed,
			cpu:     (u1.cpu - u0.cpu).Seconds(),
			alloc:   float64(u1.allocBytes - u0.allocBytes),
			mallocs: float64(u1.mallocs - u0.mallocs),
			gcs:     float64(u1.gcs - u0.gcs),
			p50:     h.quantile(0.50, so.dropped) / 1e3,
			p99:     h.quantile(0.99, so.dropped) / 1e3,
			estErr:  math.NaN(),
			rssMB:   rssMB(u1.rss),
		}
		if est := so.est[tcpsim.UnitBytes]; est.Valid && so.lat.Count() > 0 {
			meas := float64(so.lat.Sum()) / float64(so.lat.Count())
			win.estErr = 100 * math.Abs(float64(est.Latency)-meas) / meas
		}
		res.windows = append(res.windows, win)

		segs++
		completed += float64(so.completed)
		cc, sc := out.ClientConn, out.ServerConn
		segments += float64(cc.Segments + sc.Segments)
		flushes += float64(cc.Flushes + sc.Flushes)
		pAcks += float64(cc.PureAcks + sc.PureAcks)
		exchanges += float64(cc.StatesExchanged + sc.StatesExchanged)
		holds += float64(cc.NagleHolds + sc.NagleHolds)
		srvReqs += float64(out.ServerStats.Requests)
		srvBatches += float64(out.ServerStats.ReadBatches)
		ticks += float64(out.TotalTicks)
		degraded += float64(out.DegradedTicks)
		valid += float64(out.OnlineEstimates)
		onTicks += out.OnShare * float64(out.TotalTicks)
		switches += float64(out.TogglerStats.Switches)

		// A set-up takes tens of milliseconds, far less than the spells of
		// a slower or faster host, so when set-up is timed (more than one
		// set-up) one more is timed between segments every simSetupEvery:
		// setup_s then sees the whole run's host, as the windows do.
		if cfg.setups > 1 && time.Since(lastSetup) >= simSetupEvery {
			if err := setUp(); err != nil {
				return nil, err
			}
			lastSetup = time.Now()
		}
	}
	end := readCPUTimes()
	res.steal = stealShare(stat0, end)
	res.setupStolen = stolenShare(setupCPU, end)

	// Same seed, same results: rerun the first segment and compare the
	// latency record, the estimate and both byte-stream digests.
	h = hist{}
	again := segOut(figures.Run(w.spec(in, cfg.seed*1000, simSegment, &h, nil)), &h)
	res.attempted += again.issued
	res.answered += again.completed
	if again != first {
		res.wrong += again.issued
		res.checks = append(res.checks, fmt.Sprintf("rerun of segment 0 differs: latency %v vs %v, estimate %+v vs %+v, digests %x vs %x",
			&again.lat, &first.lat, again.est, first.est, again.digests, first.digests))
	}
	if res.answered < res.attempted {
		res.checks = append(res.checks, fmt.Sprintf("%d requests unanswered after drain", res.attempted-res.answered))
	}

	l := res.layer
	l["tcpsim.segments_per_req"] = segments / completed
	l["tcpsim.flushes_per_req"] = flushes / completed
	l["tcpsim.pure_acks_per_req"] = pAcks / completed
	l["tcpsim.exchanges_per_req"] = exchanges / completed
	l["tcpsim.nagle_holds_per_req"] = holds / completed
	l["kv.reqs_per_read_batch"] = srvReqs / srvBatches
	l["engine.ticks"] = ticks / segs
	l["engine.degraded_ticks"] = degraded / segs
	l["engine.valid_ratio"] = valid / ticks
	l["policy.on_share"] = onTicks / ticks
	l["policy.switches"] = switches / segs
	return res, nil
}
