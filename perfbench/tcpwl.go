package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
)

// tcpWorkload drives an in-process realtcp.Server over loopback with
// closed-loop realtcp.Client connections: each keeps depth requests
// outstanding and sends a new one as each reply lands.
type tcpWorkload struct {
	valSize     int
	conns       int
	depth       int
	keys        int
	getPermille int  // share of GETs; the rest are SETs
	preload     bool // SET every key before warm-up, so GETs hit
	warmReqs    int  // requests per connection in the set-up's warm-up
}

// procs is 0: connections and the server's handlers run in parallel.
func (tcpWorkload) procs() int { return 0 }

const (
	tcpVals     = 64
	tcpWindow   = time.Second
	tcpDrainMax = 5 * time.Second // a reply later than this counts as lost
	tcpIOLimit  = 5 * time.Second
)

var getCmd = []byte("GET")

// tcpConn is one client connection and its closed loop. The sender
// goroutine owns the request stream; onComplete runs on the client's read
// loop and owns the latency record.
type tcpConn struct {
	id    int
	w     tcpWorkload
	in    *inputs
	c     *realtcp.Client
	rng   *rand.Rand
	slots chan struct{} // one token per request that may be outstanding

	seq     uint64 // requests sent since dial; indexes t0
	t0      []time.Time
	sendEnd []atomic.Int64 // ns since base when Send returned (traced)
	lastSet []int          // value index last SET per key, -1 if none
	wire    []byte
	preload int // keys left to preload; while > 0 every request is one

	sent     uint64
	answered atomic.Uint64
	sendErr  error

	// Read-loop state, set between phases while nothing is outstanding.
	start  time.Time
	wins   []hist
	traced bool
	base   time.Time
	sendH  hist // Client.Send durations (sender-owned)
	waitH  hist // Send return → reply (read-loop-owned)
	sends  *spanBuf
	waits  *spanBuf
}

// next builds the next request: preload SETs first, then the workload mix.
// A connection only SETs keys k with k % conns == id, so the last value
// sent to a key is the one the store must hold.
func (cn *tcpConn) next() []byte {
	var k int
	set := true
	if cn.preload > 0 {
		cn.preload--
		k = cn.id + cn.preload*cn.w.conns
	} else if cn.rng.IntN(1000) < cn.w.getPermille {
		set = false
		k = cn.rng.IntN(len(cn.in.keys))
	} else {
		k = cn.id + cn.w.conns*cn.rng.IntN((len(cn.in.keys)-cn.id+cn.w.conns-1)/cn.w.conns)
	}
	if !set {
		cn.wire = resp.AppendCommand(cn.wire[:0], getCmd, cn.in.keys[k])
		return cn.wire
	}
	v := cn.rng.IntN(len(cn.in.vals))
	cn.lastSet[k] = v
	cn.wire = resp.AppendCommand(cn.wire[:0], setCmd, cn.in.keys[k], cn.in.vals[v])
	return cn.wire
}

func (cn *tcpConn) onComplete(reqID uint64, _, _ int64) {
	now := time.Now()
	i := int(reqID % uint64(cn.w.depth))
	t0 := cn.t0[i]
	if cn.wins != nil {
		idx := int(now.Sub(cn.start) / tcpWindow)
		if idx >= len(cn.wins) {
			idx = len(cn.wins) - 1 // drain after the last window
		}
		cn.wins[idx].record(int64(now.Sub(t0)))
	}
	if cn.traced {
		// A reply can land before the sender has noted Send's return;
		// then the request spent no time waiting after the send.
		end := cn.base.Add(time.Duration(cn.sendEnd[i].Load()))
		if end.Before(t0) || end.After(now) {
			end = now
		}
		cn.waitH.record(int64(now.Sub(end)))
		cn.waits.add(traceEvent{Name: "reply_wait", Cat: "realtcp", Ph: "X", Pid: pidWall, Tid: uint32(10 + cn.id),
			Ts: usSince(cn.base, end), Dur: usSince(end, now),
			Args: traceArgs{ReqID: reqID, Conn: uint32(cn.id), Parent: "Client.Send"}})
		cn.waits.add(traceEvent{Name: "ObserveCompletions", Cat: "realtcp", Ph: "X", Pid: pidWall, Tid: uint32(10 + cn.id),
			Ts: usSince(cn.base, t0), Dur: usSince(t0, now),
			Args: traceArgs{ReqID: reqID, Conn: uint32(cn.id)}})
	}
	cn.answered.Add(1)
	cn.slots <- struct{}{}
}

// drive runs the closed loop until stopAt, or for n requests when n > 0,
// then waits for every reply. It reports whether all replies arrived.
func (cn *tcpConn) drive(stopAt time.Time, n int) bool {
	for i := 0; n <= 0 || i < n; i++ {
		<-cn.slots
		now := time.Now()
		if n <= 0 && !now.Before(stopAt) {
			cn.slots <- struct{}{}
			break
		}
		slot := int(cn.seq % uint64(cn.w.depth))
		cn.t0[slot] = now
		err := cn.c.Send(cn.next())
		if cn.traced {
			end := time.Now()
			cn.sendEnd[slot].Store(int64(end.Sub(cn.base)))
			cn.sendH.record(int64(end.Sub(now)))
			cn.sends.add(traceEvent{Name: "Client.Send", Cat: "realtcp", Ph: "X", Pid: pidWall, Tid: uint32(cn.id),
				Ts: usSince(cn.base, now), Dur: usSince(now, end),
				Args: traceArgs{ReqID: cn.seq, Conn: uint32(cn.id)}})
		}
		if err != nil {
			cn.sendErr = err
			cn.slots <- struct{}{}
			break
		}
		cn.seq++
		cn.sent++
	}
	timeout := time.NewTimer(tcpDrainMax)
	defer timeout.Stop()
	for k := 0; k < cn.w.depth; k++ {
		select {
		case <-cn.slots:
		case <-timeout.C:
			return false
		}
	}
	for k := 0; k < cn.w.depth; k++ {
		cn.slots <- struct{}{}
	}
	return true
}

// tcpRig is one server and its client connections.
type tcpRig struct {
	srv   *realtcp.Server
	eng   *kv.Engine
	addr  string
	serve chan error
	conns []*tcpConn

	execMu sync.Mutex
	execH  hist // server-side Execute durations, lock wait included
	execs  *spanBuf
}

// phase runs every connection's drive concurrently, each for count(cn)
// requests or, when that is 0, until stopAt.
func (r *tcpRig) phase(stopAt time.Time, count func(*tcpConn) int) bool {
	ok := make([]bool, len(r.conns))
	var wg sync.WaitGroup
	for i, cn := range r.conns {
		wg.Add(1)
		go func(i int, cn *tcpConn) {
			defer wg.Done()
			ok[i] = cn.drive(stopAt, count(cn))
		}(i, cn)
	}
	wg.Wait()
	for i := range ok {
		if !ok[i] {
			return false
		}
	}
	return true
}

func (r *tcpRig) close() {
	for _, cn := range r.conns {
		cn.c.Close()
	}
	r.srv.Close()
	<-r.serve
}

// setUp starts a server built as the kvserver command builds it by default
// (NODELAY, 64 KiB connection buffers, one accounting shard per P), dials
// the connections, preloads the keys and runs the warm-up.
func (w tcpWorkload) setUp(seed int64, in *inputs, trace *spanBuf, base time.Time) (*tcpRig, error) {
	store := kv.NewStore(func() time.Duration { return time.Duration(time.Now().UnixNano()) })
	r := &tcpRig{eng: kv.NewEngine(store), serve: make(chan error, 1), execs: trace}
	r.srv = realtcp.NewServer(r.eng)
	r.srv.ShardCount = runtime.GOMAXPROCS(0)
	r.srv.BufBytes = 64 << 10
	if trace != nil {
		r.srv.OnRequestShard = func(shard int, d time.Duration) {
			end := time.Now()
			r.execMu.Lock()
			r.execH.record(int64(d))
			r.execs.add(traceEvent{Name: "Server.OnRequestShard", Cat: "kv", Ph: "X", Pid: pidWall, Tid: uint32(20 + shard),
				Ts: usSince(base, end.Add(-d)), Dur: float64(d.Nanoseconds()) / 1e3})
			r.execMu.Unlock()
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.addr = l.Addr().String()
	go func() { r.serve <- r.srv.Serve(l) }()
	for i := 0; i < w.conns; i++ {
		c, err := realtcp.DialWith(r.addr, realtcp.DialOptions{
			MaxInflight: w.depth,
			DialTimeout: tcpIOLimit,
			ReadTimeout: tcpIOLimit,
			// Latencies come through ObserveCompletions; the client's
			// own unbounded latency log would only add allocations.
			DiscardLatencyLog: true,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		cn := &tcpConn{id: i, w: w, in: in, c: c,
			rng:     rand.New(rand.NewPCG(uint64(seed), uint64(i)+1)),
			slots:   make(chan struct{}, w.depth),
			t0:      make([]time.Time, w.depth),
			sendEnd: make([]atomic.Int64, w.depth),
			lastSet: make([]int, len(in.keys)),
			base:    base,
		}
		for k := range cn.lastSet {
			cn.lastSet[k] = -1
		}
		for k := 0; k < w.depth; k++ {
			cn.slots <- struct{}{}
		}
		c.ObserveCompletions(cn.onComplete)
		r.conns = append(r.conns, cn)
	}
	if w.preload {
		for _, cn := range r.conns {
			cn.preload = (len(in.keys) - cn.id + w.conns - 1) / w.conns
		}
		if !r.phase(time.Time{}, func(cn *tcpConn) int { return cn.preload }) {
			r.close()
			return nil, errors.New("preload: replies missing")
		}
	}
	if !r.phase(time.Time{}, func(*tcpConn) int { return w.warmReqs }) {
		r.close()
		return nil, errors.New("warm-up: replies missing")
	}
	return r, nil
}

func (w tcpWorkload) run(cfg runCfg) (*runResult, error) {
	res := &runResult{layer: map[string]float64{}}
	in := genInputs(cfg.seed, w.keys, tcpVals, w.valSize)
	var trace *spanBuf
	if cfg.traced {
		trace = newSpanBuf(8192)
	}
	var r *tcpRig
	setupCPU := readCPUTimes()
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setUp(cfg.seed, &in, trace, cfg.base); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	res.setupStolen = stolenShare(setupCPU, readCPUTimes())
	defer r.close()
	if trace != nil {
		trace.evs = trace.evs[:0] // keep only the measured window's spans
		r.execMu.Lock()
		r.execH = hist{}
		r.execMu.Unlock()
	}

	nwin := int(cfg.seconds / tcpWindow)
	if nwin < 1 {
		nwin = 1
	}
	answered0 := make([]uint64, len(r.conns))
	for i, cn := range r.conns {
		cn.wins = make([]hist, nwin+1)
		cn.traced = cfg.traced
		if cfg.traced {
			cn.sends, cn.waits = newSpanBuf(8192), newSpanBuf(16384)
			res.spans = append(res.spans, cn.sends, cn.waits)
		}
		answered0[i] = cn.answered.Load()
		cn.sent = 0
		cn.c.Estimate() // start the estimator's first interval
	}
	if trace != nil {
		res.spans = append(res.spans, trace)
	}

	stat0 := readCPUTimes()
	start := time.Now()
	stopAt := start.Add(time.Duration(nwin) * tcpWindow)
	for _, cn := range r.conns {
		cn.start = start
	}
	done := make(chan bool, 1)
	go func() { done <- r.phase(stopAt, func(*tcpConn) int { return 0 }) }()

	// Window edges: process counters and each client's own estimate of
	// its mean latency (Little's law over its create/complete counters).
	us := []usage{readUsage()}
	cpus := []cpuTimes{readCPUTimes()}
	est := make([]float64, nwin)
	for k := 1; k <= nwin; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * tcpWindow)))
		us = append(us, readUsage())
		cpus = append(cpus, readCPUTimes())
		var wsum, wn float64
		for _, cn := range r.conns {
			a := cn.c.Estimate()
			if a.Valid {
				wsum += float64(a.Latency) * float64(a.Departures)
				wn += float64(a.Departures)
			}
		}
		est[k-1] = math.NaN()
		if wn > 0 {
			est[k-1] = wsum / wn
		}
	}
	drained := <-done
	res.steal = stealShare(stat0, readCPUTimes())
	if !drained {
		// Replies still owed: stop the read loops before reading what
		// they recorded.
		for _, cn := range r.conns {
			cn.c.Close()
		}
	}

	for i, cn := range r.conns {
		res.attempted += cn.sent
		res.answered += cn.answered.Load() - answered0[i]
		if cn.sendErr != nil {
			res.attempted++ // the request whose send failed
			res.checks = append(res.checks, fmt.Sprintf("conn %d: send: %v", cn.id, cn.sendErr))
		}
		select {
		case <-cn.c.Done():
			if drained {
				res.checks = append(res.checks, fmt.Sprintf("conn %d: read loop ended during the run", cn.id))
				res.wrong++
			}
		default:
		}
	}
	lost := res.attempted - min(res.answered, res.attempted)

	for k := 0; k < nwin; k++ {
		var h hist
		for _, cn := range r.conns {
			h.merge(&cn.wins[k])
		}
		var failed uint64
		if k == nwin-1 {
			failed = lost // never answered: beyond any limit
		}
		win := window{
			wall:    tcpWindow.Seconds(),
			stolen:  stolenShare(cpus[k], cpus[k+1]),
			reqs:    h.n,
			cpu:     (us[k+1].cpu - us[k].cpu).Seconds(),
			alloc:   float64(us[k+1].allocBytes - us[k].allocBytes),
			mallocs: float64(us[k+1].mallocs - us[k].mallocs),
			gcs:     float64(us[k+1].gcs - us[k].gcs),
			p50:     h.quantile(0.50, failed) / 1e3,
			p99:     h.quantile(0.99, failed) / 1e3,
			estErr:  math.NaN(),
			rssMB:   rssMB(us[k+1].rss),
		}
		if m := h.mean(); !math.IsNaN(est[k]) && m > 0 {
			win.estErr = 100 * math.Abs(est[k]-m) / m
		}
		res.samples += h.n
		res.windows = append(res.windows, win)
	}

	// Output check: a separate connection GETs every key and compares it
	// with the last value this run sent.
	if drained {
		want := make([][]byte, len(in.keys))
		for _, cn := range r.conns {
			for k, v := range cn.lastSet {
				if v >= 0 {
					want[k] = in.vals[v]
				}
			}
		}
		bad, n, err := verifyKeys(r.addr, in.keys, want)
		res.attempted += uint64(n)
		res.answered += uint64(n)
		res.wrong += uint64(bad)
		if err != nil {
			res.checks = append(res.checks, "verify: "+err.Error())
			res.wrong++
		} else if bad > 0 {
			res.checks = append(res.checks, fmt.Sprintf("verify: %d of %d keys differ from the last value sent", bad, n))
		}
	}
	_, errs := r.eng.Commands()
	if errs > 0 {
		res.wrong += errs
		res.checks = append(res.checks, fmt.Sprintf("server engine reported %d command errors", errs))
	}
	if res.answered < res.attempted {
		res.checks = append(res.checks, fmt.Sprintf("%d requests unanswered", res.attempted-res.answered))
	}

	res.layer["kv.errors"] = float64(errs)
	if cfg.traced {
		var send, wait hist
		for _, cn := range r.conns {
			send.merge(&cn.sendH)
			wait.merge(&cn.waitH)
		}
		r.execMu.Lock()
		exec := r.execH
		r.execMu.Unlock()
		res.layer["realtcp.server_exec_us_p50"] = exec.quantile(0.50, 0) / 1e3
		res.layer["realtcp.server_exec_us_p99"] = exec.quantile(0.99, 0) / 1e3
		res.layer["realtcp.send_us_p50"] = send.quantile(0.50, 0) / 1e3
		res.layer["realtcp.send_us_p99"] = send.quantile(0.99, 0) / 1e3
		res.layer["realtcp.reply_wait_us_p50"] = wait.quantile(0.50, 0) / 1e3
		res.layer["realtcp.reply_wait_us_p99"] = wait.quantile(0.99, 0) / 1e3
	}
	return res, nil
}

// verifyKeys GETs every key over a raw connection, reading replies with
// the benchmark's own RESP reader, and counts those whose value is not
// want[k] (nil: the key was never written, so must be missing).
func verifyKeys(addr string, keys, want [][]byte) (bad, n int, err error) {
	nc, err := net.DialTimeout("tcp", addr, tcpIOLimit)
	if err != nil {
		return 0, 0, err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(tcpIOLimit)); err != nil {
		return 0, 0, err
	}
	bw := bufio.NewWriter(nc)
	br := bufio.NewReader(nc)
	for k := range keys {
		fmt.Fprintf(bw, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(keys[k]), keys[k])
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	for k := range keys {
		got, null, err := readBulk(br)
		if err != nil {
			return bad, n, fmt.Errorf("key %d: %w", k, err)
		}
		n++
		if null != (want[k] == nil) || !bytes.Equal(got, want[k]) {
			bad++
		}
	}
	return bad, n, nil
}

// readBulk reads one RESP bulk-string reply ("$<n>\r\n<bytes>\r\n", or
// "$-1\r\n" for a missing key).
func readBulk(br *bufio.Reader) (val []byte, null bool, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, false, err
	}
	if len(line) < 3 || line[0] != '$' || line[len(line)-2] != '\r' {
		return nil, false, fmt.Errorf("not a bulk reply: %q", line)
	}
	size, err := strconv.Atoi(line[1 : len(line)-2])
	if err != nil {
		return nil, false, fmt.Errorf("bulk length %q: %w", line, err)
	}
	if size < 0 {
		return nil, true, nil
	}
	val = make([]byte, size+2)
	if _, err := io.ReadFull(br, val); err != nil {
		return nil, false, err
	}
	if val[size] != '\r' || val[size+1] != '\n' {
		return nil, false, errors.New("bulk reply not terminated by CRLF")
	}
	return val[:size], false, nil
}
