package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..n, shuffled order must not matter
	}
	for i := 0; i < n/2; i++ {
		xs[i], xs[n-1-i] = xs[n-1-i], xs[i]
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{10000, 99.9, 9990}, // rank 9990, 10 beyond
		{1000, 99, 990},     // p99.9 would leave 1 beyond
		{999, 98, 980},      // p99: rank 990, only 9 beyond
		{500, 98, 490},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10}, // the smallest count with any tail
	} {
		got, ok := tailOf(seq(tc.n))
		if !ok || got.Pct != tc.pct || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d: got %+v ok=%v, want p%g=%g of %d", tc.n, got, ok, tc.pct, tc.value, tc.n)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: %d samples beyond p%g, want >= %d", tc.n, beyond, got.Pct, tailBeyond)
		}
	}
	if got, ok := tailOf(seq(19)); ok {
		t.Errorf("19 samples: got %+v, want no tail", got)
	}
	if s := (tail{Pct: 98, Value: 4.5, N: 500}).String(); s != "p98=4.5 of 500" {
		t.Errorf("tail states its sample count: got %q", s)
	}
}

func TestOpenLoopLatencyCountsWaitFromDue(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	reqs := []request{
		{Due: at(0), Sent: at(0), Done: at(50)},    // slow: holds the connection
		{Due: at(10), Sent: at(50), Done: at(52)},  // waited 40ms behind it: not lag
		{Due: at(60), Sent: at(63), Done: at(64)},  // idle connection, sent 3ms late: lag
		{Due: at(65), Sent: at(66), Done: at(67)},  // free at 64, due 65, sent 66: 1ms lag
		{Due: at(66), Sent: at(67), Done: at(100)}, // free at 67 = sent: no lag
	}
	lat, lag := openLoopTimes(reqs)
	wantLat := []int{50, 42, 4, 2, 34}
	wantLag := []int{0, 0, 3, 1, 0}
	for i := range reqs {
		if lat[i] != time.Duration(wantLat[i])*time.Millisecond {
			t.Errorf("request %d: latency %v, want %dms (from due, not from send)", i, lat[i], wantLat[i])
		}
		if lag[i] != time.Duration(wantLag[i])*time.Millisecond {
			t.Errorf("request %d: lag %v, want %dms", i, lag[i], wantLag[i])
		}
	}
}

func TestScheduleIsSeededOrderedAndSpreadsTenants(t *testing.T) {
	plats := []platform{{index: 0, lines: []string{"a"}}, {index: 1, lines: []string{"a", "b"}}}
	draw := func() ([][]scheduled, []*session) {
		src := &sessionSource{rng: rand.New(rand.NewSource(7)), plats: plats}
		return schedule(src, time.Second, 2)
	}
	p1, s1 := draw()
	p2, s2 := draw()
	if len(s1) != len(s2) || len(s1) < 50 {
		t.Fatalf("sessions: %d and %d draws", len(s1), len(s2))
	}
	reqs := 0
	for c := range p1 {
		reqs += len(p1[c])
		for i := range p1[c] {
			a, b := p1[c][i], p2[c][i]
			if a.due != b.due || a.step != b.step || a.s.n != b.s.n {
				t.Fatalf("connection %d request %d differs between equal seeds", c, i)
			}
			if i > 0 && a.due < p1[c][i-1].due {
				t.Fatalf("connection %d: request %d due before its predecessor", c, i)
			}
		}
	}
	// The offered rate is serveRate on average: allow a wide margin for
	// the Poisson draw over one second.
	if reqs < int(serveRate/2) || reqs > int(serveRate*2) {
		t.Errorf("%d requests scheduled in 1s, want about %v", reqs, serveRate)
	}
	seen := map[string]bool{}
	for _, s := range s1 {
		seen[s.tenant] = true
	}
	if len(seen) != tenants {
		t.Errorf("%d tenants drawn, want %d", len(seen), tenants)
	}
}

func TestMetricNames(t *testing.T) {
	m := metrics{}
	for _, bad := range []string{"", "has space", "slash/name", "ünicode", "_leading", strings.Repeat("a", 65)} {
		if err := m.set(bad, "ms", 1); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := m.set("cache.disk.get_us", "us", 1); err != nil {
		t.Error(err)
	}
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("declared metric %q uses characters outside letters, digits, '_', '.', '-'", d.name)
		}
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the benchmark's metric lists
// in step with BENCHMARK.json at the repository root.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, symbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], symbench %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, symbench has %d", len(bj.Workloads), len(workloads))
	}
}

func TestPromSumAddsMatchingSeries(t *testing.T) {
	text := "# TYPE symtago_request_shed_total counter\n" +
		"symtago_request_shed_total{route=\"a\"} 2\n" +
		"symtago_request_shed_total{route=\"b\"} 3\n" +
		"symtago_cache_hits_total{tier=\"l1\"} 7\n" +
		"symtago_cache_hits_total{tier=\"l2\"} 9\n"
	if got := promSum(text, "symtago_request_shed_total{"); got != 5 {
		t.Errorf("shed over routes: got %v, want 5", got)
	}
	if got := promSum(text, `symtago_cache_hits_total{tier="l1"} `); got != 7 {
		t.Errorf("one series: got %v, want 7", got)
	}
}
