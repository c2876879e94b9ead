// Command symbench is the end-to-end benchmark of symtago: it builds
// on the binary of the checkout it runs in, drives one named workload
// for a fixed time and prints one JSON result line. See README.md for
// the workloads, metrics and the per-layer prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// run is the state of one benchmark invocation.
type run struct {
	bin    string        // the symtago binary under test
	work   string        // scratch directory, removed at exit
	seed   int64         // workload seed: same seed, same inputs
	window time.Duration // how long the run measures
	pool   int           // worker pool, threads and connections (nproc)

	m                 metrics
	attempted, failed int
}

// op counts attempted operations and, when ok is false, a failure.
func (r *run) op(n int, ok bool) {
	r.attempted += n
	if !ok {
		r.failed += n
	}
}

// fail records n failed operations found by an output check.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "symbench: CHECK FAILED: "+format+"\n", args...)
}

// mismatch records one failed output check.
func (r *run) mismatch(format string, args ...any) { r.fail(1, format, args...) }

// info prints a figure that is not a BENCHMARK.json metric of this
// mode: workload-specific end-to-end figures and diagnostics.
func (r *run) info(name, unit string, v float64) {
	fmt.Fprintf(os.Stderr, "symbench: %-34s %12.4f %s\n", name, v, unit)
}

// set records a reported metric and echoes it.
func (r *run) set(name, unit string, v float64) error {
	if err := r.m.set(name, unit, v); err != nil {
		return err
	}
	r.info(name, unit, v)
	return nil
}

type workload struct {
	measure func(*run) error // untraced, out-of-process: end-to-end metrics
	ledger  ledgerSize       // sizes of the traced in-process run
}

var workloads = map[string]workload{
	"campaign":        {measure: measureCampaign, ledger: ledgerSize{campaign: campaignSize, cache: probeSize, distrib: probeSize}},
	"campaign-l2":     {measure: measureL2, ledger: ledgerSize{campaign: l2Size, cache: l2Size, distrib: probeSize}},
	"serve-revisions": {measure: measureServe, ledger: ledgerSize{campaign: probeSize, cache: probeSize, distrib: probeSize, serveMain: true}},
	"campaign-fleet":  {measure: measureFleet, ledger: ledgerSize{campaign: campaignSize, cache: probeSize, distrib: campaignSize}},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from the binary; 1: per-layer metrics from the traced in-process run")
	bin := flag.String("bin", "", "symtago binary under test")
	work := flag.String("work", "", "scratch directory for this run's files")
	flag.Parse()

	if err := mainErr(*name, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "symbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, bin, work string) error {
	w, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("symtago binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		bin: bin, work: dir, seed: seed,
		window: time.Duration(seconds) * time.Second,
		pool:   runtime.NumCPU(), m: metrics{},
	}
	fmt.Fprintf(os.Stderr, "symbench: workload %s seed %d, %s, pool %d, trace %d\n",
		name, seed, r.window, r.pool, trace)
	if trace == 0 {
		err = w.measure(r)
	} else {
		err = runLedger(r, w.ledger)
	}
	if err != nil {
		return err
	}
	return printResult(r, trace == 1)
}

// printResult writes the one-line JSON result, after checking that
// exactly the declared metrics of this mode were measured.
func printResult(r *run, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, d := range want {
		got, ok := r.m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if got.Unit != d.unit {
			return fmt.Errorf("metric %s: unit %s, declared %s", d.name, got.Unit, d.unit)
		}
	}
	if len(r.m) != len(want) {
		return fmt.Errorf("measured %d metrics, declared %d", len(r.m), len(want))
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	fmt.Fprintf(os.Stderr, "symbench: error_rate %.6f (%d failed of %d attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// decl is a metric as BENCHMARK.json declares it.
type decl struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json; a test keeps them in
// step.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"cpu_ms_per_scenario", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []decl{
	{"scenario.generate_ms", "ms"},
	{"scenario.build_ms", "ms"},
	{"whatif.analyze_ms", "ms"},
	{"whatif.perturb_ms", "ms"},
	{"whatif.hit_ratio", "ratio"},
	{"netsim.simulate_ms", "ms"},
	{"netsim.frames_per_s", "1/s"},
	{"campaign.scenario_tail_ms", "ms"},
	{"campaign.pool_busy_ratio", "ratio"},
	{"campaign.stage_coverage", "ratio"},
	{"go.alloc_kb_per_scenario", "KB"},
	{"trace.speed_ratio", "ratio"},
	{"cache.disk.get_us", "us"},
	{"cache.disk.put_us", "us"},
	{"cache.disk.hit_ratio", "ratio"},
	{"cache.disk.records_per_scenario", "count"},
	{"cache.disk.spent_ms_per_scenario", "ms"},
	{"cache.disk.saved_ms_per_scenario", "ms"},
	{"distrib.shard_ms", "ms"},
	{"distrib.worker_shard_ms", "ms"},
	{"distrib.overhead_ms_per_shard", "ms"},
	{"distrib.wire_bytes_per_scenario", "B"},
	{"distrib.worker_busy_ratio", "ratio"},
	{"service.changes_handler_tail_ms", "ms"},
	{"service.analysis_handler_tail_ms", "ms"},
	{"service.client_overhead_p50_ms", "ms"},
	{"service.store_hit_ratio", "ratio"},
	{"loadgen.lag_tail_ms", "ms"},
}

// scratch returns a fresh path inside the run's scratch directory.
func (r *run) scratch(name string) string { return filepath.Join(r.work, name) }
