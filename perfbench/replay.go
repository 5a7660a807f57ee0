package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// replayInput is a workload's own generated request stream, as argument
// lists, plus the keys a store must hold for its GETs to hit.
type replayInput struct {
	reqs [][][]byte
	keys [][]byte
	val  []byte
}

const replayReqs = 1024

func (w simWorkload) replayInput(seed int64) replayInput {
	in := genInputs(seed, simKeys, simVals, w.valSize)
	mk := in.maker(seed * 1000)
	ri := replayInput{keys: in.keys, val: in.vals[0]}
	for i := 0; i < replayReqs; i++ {
		wire, _ := mk(uint64(i))
		ri.reqs = append(ri.reqs, commandArgs(wire))
	}
	return ri
}

// commandArgs splits one encoded command back into its arguments, with a
// parser per wire so the arguments outlive the next Feed.
func commandArgs(wire []byte) [][]byte {
	var p resp.Parser
	p.Feed(wire)
	v, _, _ := p.Next() // the benchmark's own encoding: cannot fail
	args := make([][]byte, len(v.Array))
	for j, a := range v.Array {
		args[j] = a.Str
	}
	return args
}

func (w tcpWorkload) replayInput(seed int64) replayInput {
	in := genInputs(seed, w.keys, tcpVals, w.valSize)
	cn := &tcpConn{id: 0, w: w, in: &in, rng: rand.New(rand.NewPCG(uint64(seed), 1)),
		lastSet: make([]int, len(in.keys))}
	cn.w.conns = 1 // one stream may SET every key
	ri := replayInput{keys: in.keys, val: in.vals[0]}
	for i := 0; i < replayReqs; i++ {
		ri.reqs = append(ri.reqs, commandArgs(cn.next()))
	}
	return ri
}

// opCost is one layer function's cost per call.
type opCost struct{ ns, bytes, allocs float64 }

// measureOps runs op n times and divides the wall time and the heap
// allocation counters by n.
func measureOps(n int, op func(i int)) opCost {
	u0 := readUsage()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	el := time.Since(t0)
	u1 := readUsage()
	return opCost{
		ns:     float64(el.Nanoseconds()) / float64(n),
		bytes:  float64(u1.allocBytes-u0.allocBytes) / float64(n),
		allocs: float64(u1.mallocs-u0.mallocs) / float64(n),
	}
}

// replayOps sizes a replay so each layer handles about 64 MiB of requests,
// between 20k and 500k calls.
func replayOps(wireBytes int) int {
	return min(max((64<<20)/max(wireBytes, 1), 20_000), 500_000)
}

// tcpsimPair is a simulated connection with the figures calibration.
func tcpsimPair(seed int64) (*sim.Sim, *tcpsim.Conn, *tcpsim.Conn, figures.Calib) {
	cal := figures.DefaultCalib()
	s := sim.New(seed)
	cs := tcpsim.NewStack(s, "client")
	cs.TxCosts, cs.RxCosts = cal.ClientTx, cal.ClientRx
	ss := tcpsim.NewStack(s, "server")
	ss.TxCosts, ss.RxCosts = cal.ServerTx, cal.ServerRx
	link := netem.NewLink(s, "wire", cal.Link)
	cc, sc := tcpsim.Connect(cs, ss, link, cal.TCP)
	return s, cc, sc, cal
}

// runReplay measures each layer's public function on the workload's own
// inputs, outside any server or simulator loop.
func runReplay(ri replayInput, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	put := func(name string, c opCost, withBytes bool) {
		out[name+"_ns"] = c.ns
		out[name+"_allocs"] = c.allocs
		if withBytes {
			out[name+"_bytes"] = c.bytes
		}
	}
	wires := make([][]byte, len(ri.reqs))
	total := 0
	for i, args := range ri.reqs {
		wires[i] = resp.AppendCommand(nil, args...)
		total += len(wires[i])
	}
	n := replayOps(total / len(wires))
	at := func(i int) int { return i % len(wires) }

	var sink []byte
	put("resp.encode", measureOps(n, func(i int) { sink = resp.AppendCommand(nil, ri.reqs[at(i)]...) }), false)
	_ = sink

	var p resp.Parser
	var perr error
	put("resp.parse", measureOps(n, func(i int) {
		p.Feed(wires[at(i)])
		if _, ok, err := p.Next(); err != nil || !ok {
			perr = fmt.Errorf("parse request %d: ok=%v err=%v", at(i), ok, err)
		}
	}), true)
	if perr != nil {
		return nil, perr
	}

	// The store keeps what SET hands it; each command gets a parser of its
	// own, so this holds even for a parser whose values point into its
	// buffer.
	cmds := make([]resp.Value, len(wires))
	for i, w := range wires {
		var p resp.Parser
		p.Feed(w)
		cmds[i], _, _ = p.Next()
	}
	store := kv.NewStore(func() time.Duration { return 0 })
	for _, k := range ri.keys {
		store.Set(string(k), ri.val, 0)
	}
	eng := kv.NewEngine(store)
	replies := make([]resp.Value, len(wires))
	put("kv.execute", measureOps(n, func(i int) { replies[at(i)] = eng.Execute(cmds[at(i)]) }), true)
	if _, errs := eng.Commands(); errs > 0 {
		return nil, fmt.Errorf("replay: engine reported %d command errors", errs)
	}
	put("resp.reply", measureOps(n, func(i int) { sink = resp.AppendValue(nil, replies[at(i)]) }), true)

	// One workload-sized message through a simulated connection:
	// Send, segmenting, the link, delivery and ACKs, then Read.
	s, cc, sc, cal := tcpsimPair(seed)
	var merr error
	msgs := max(n/20, 1000)
	c := measureOps(msgs, func(i int) {
		w := wires[at(i)]
		cc.Send(w)
		s.Run()
		if got := sc.Read(0); len(got) != len(w) {
			merr = fmt.Errorf("tcpsim delivered %d of %d bytes", len(got), len(w))
		}
	})
	if merr != nil {
		return nil, merr
	}
	put("tcpsim.msg", c, true)

	// Event dispatch: schedule one event and run the earliest, over a
	// standing population of 64 pending events.
	rng := rand.New(rand.NewPCG(uint64(seed), 0xe7))
	es := sim.New(seed)
	fn := func() {}
	for i := 0; i < 64; i++ {
		es.After(time.Duration(rng.IntN(1000)), fn)
	}
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.IntN(1000))
	}
	put("sim.event", measureOps(500_000, func(i int) {
		es.After(delays[i%len(delays)], fn)
		es.Step()
	}), false)

	// Engine tick over a live connection: each round trips one request
	// and its reply, then ticks; only the tick is timed and counted.
	s, cc, sc, cal = tcpsimPair(seed)
	tog := policy.NewToggler(policy.ThroughputUnderSLO{SLO: cal.SLO}, policy.DefaultTogglerConfig(), policy.BatchOff, s.Rand())
	ep := engine.New(engine.Config{Controller: tog, Initial: policy.BatchOff, CorkOnBytes: cal.CorkOnBytes,
		MaxRemoteAge: 5 * time.Millisecond}, tcpsim.NewEnginePort(cc, sc, tcpsim.UnitBytes))
	reply := resp.AppendValue(nil, resp.OK())
	round := func(i int) {
		cc.Send(wires[at(i)])
		s.RunFor(time.Millisecond)
		sc.Read(0)
		sc.Send(reply)
		s.RunFor(time.Millisecond)
		cc.Read(0)
	}
	ticks := max(n/20, 1000)
	var tickNs time.Duration
	var tickAllocs uint64
	for i := 0; i < ticks; i++ {
		round(i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ep.Tick(qstate.Time(s.Now()))
		tickNs += time.Since(t0)
		runtime.ReadMemStats(&m1)
		tickAllocs += m1.Mallocs - m0.Mallocs
	}
	out["engine.tick_ns"] = float64(tickNs.Nanoseconds()) / float64(ticks)
	out["engine.tick_allocs"] = float64(tickAllocs) / float64(ticks)
	return out, nil
}
