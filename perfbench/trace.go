package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// Span process ids in the written trace: wall-clock spans the benchmark
// timed around its calls, and the simulator's requests in virtual time.
const (
	pidWall    = 1
	pidVirtual = 2
)

// traceEvent is one Chrome trace_event "X" (complete) event, the format
// the program's /debug/trace endpoint serves: microsecond timestamps,
// fractional for sub-µs spans.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  uint32    `json:"tid"`
	Args traceArgs `json:"args"`
}

// traceArgs ties spans of one request together: spans with the same conn
// and req_id belong to one request, and parent names the span that caused
// this one.
type traceArgs struct {
	ReqID  uint64  `json:"req_id"`
	Conn   uint32  `json:"conn"`
	Parent string  `json:"parent,omitempty"`
	EstUs  float64 `json:"est_us,omitempty"`
}

// spanBuf keeps spans in memory until the run ends. It has one writer and
// a fixed capacity allocated up front, so recording never allocates; spans
// past the capacity are counted but not kept.
type spanBuf struct {
	evs     []traceEvent
	dropped uint64
}

func newSpanBuf(n int) *spanBuf { return &spanBuf{evs: make([]traceEvent, 0, n)} }

func (b *spanBuf) add(ev traceEvent) {
	if len(b.evs) == cap(b.evs) {
		b.dropped++
		return
	}
	b.evs = append(b.evs, ev)
}

// usSince converts a wall instant to trace microseconds from base.
func usSince(base, t time.Time) float64 { return float64(t.Sub(base).Nanoseconds()) / 1e3 }

// writeChromeTrace writes every kept span of bufs as one trace_event
// document.
func writeChromeTrace(path string, bufs []*spanBuf) error {
	var evs []traceEvent
	for _, b := range bufs {
		evs = append(evs, b.evs...)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ms", evs}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// cpuProfile records a CPU profile in memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func (p *cpuProfile) start() error { return pprof.StartCPUProfile(&p.buf) }

// stop ends the profile and returns the share of samples, in percent,
// whose leaf function belongs to each module (moduleOf), plus the sample
// count.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	leaves, err := leafSamples(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	var total int64
	byMod := map[string]int64{}
	for fn, n := range leaves {
		byMod[moduleOf(fn)] += n
		total += n
	}
	pct := map[string]float64{}
	for m, n := range byMod {
		pct[m] = 100 * float64(n) / float64(total)
	}
	return pct, total, nil
}

// leafSamples decodes a gzipped pprof profile (profile.proto) and sums the
// first sample value per leaf function name. A location with inlined calls
// lists the innermost function first, so that is the leaf.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc uint64
		val int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = pbRepeated(locs, v, b)
				case 2:
					for _, x := range pbRepeated(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[0]})
			}
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if fn, ok := locFunc[s.loc]; ok {
			if i, ok := funcName[fn]; ok && i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
		}
		out[name] += s.val
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks the fields of one protobuf message, handing each to fn
// with its number and either its varint value or its bytes.
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field, packed (bytes) or not.
func pbRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
