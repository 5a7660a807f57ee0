package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/realtcp"
)

// BENCHMARK.json and the tables the benchmark prints from must name the
// same workloads and metrics with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not runnable", w.Name)
		}
	}
	same := func(kind string, listed []def, printed []metricDef) {
		want := map[string]string{}
		for _, d := range printed {
			want[d.name] = d.unit
		}
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(want))
		}
		for _, d := range listed {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s [%s] is printed as [%s] (printed: %v)", kind, d.Name, d.Unit, u, ok)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestReadBulk(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("$5\r\nhello\r\n$-1\r\n$0\r\n\r\n+OK\r\n$3\r\nabcd\r\n"))
	if v, null, err := readBulk(br); err != nil || null || string(v) != "hello" {
		t.Errorf("bulk = %q, %v, %v", v, null, err)
	}
	if _, null, err := readBulk(br); err != nil || !null {
		t.Errorf("null bulk = %v, %v", null, err)
	}
	if v, null, err := readBulk(br); err != nil || null || len(v) != 0 {
		t.Errorf("empty bulk = %q, %v, %v", v, null, err)
	}
	if _, _, err := readBulk(br); err == nil {
		t.Error("simple string accepted as bulk")
	}
	if _, _, err := readBulk(br); err == nil {
		t.Error("bulk longer than its length accepted")
	}
}

// The output check must catch a store that holds anything but the last
// value sent, and a key that should be missing.
func TestVerifyKeysDetectsMismatch(t *testing.T) {
	store := kv.NewStore(func() time.Duration { return 0 })
	store.Set("k1", []byte("v1"), 0)
	store.Set("k2", []byte("stale"), 0)
	store.Set("k3", []byte("extra"), 0)
	srv := realtcp.NewServer(kv.NewEngine(store))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-done
	}()
	keys := [][]byte{[]byte("k1"), []byte("k2"), []byte("k3"), []byte("k4")}
	want := [][]byte{[]byte("v1"), []byte("fresh"), nil, nil}
	bad, n, err := verifyKeys(l.Addr().String(), keys, want)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || bad != 2 {
		t.Errorf("verifyKeys = %d bad of %d, want 2 of 4 (k2 stale, k3 present)", bad, n)
	}
}
