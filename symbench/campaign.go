package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Corpus sizes. campaignSize is the default spec, the paper's
// population study. l2Size keeps a cold disk fill (15-30 ms a scenario
// on a 2-CPU box) short enough for a dozen fill+warm cycles per run.
const (
	campaignSize = 500
	l2Size       = 50
	// fleetShard gives dozens of shards over the default spec, so the
	// per-shard cost of the wire is a visible share of the run.
	fleetShard = 8
)

// specText is the corpus spec the program is given: the seed and size
// only, every draw parameter at its default.
func specText(seed int64, count int) string {
	return fmt.Sprintf("seed = %d\ncount = %d\n", seed, count)
}

// campaignArgs is a local campaign over spec writing its CSV to csv.
func (r *run) campaignArgs(spec, csv string, extra ...string) []string {
	return append([]string{"campaign", "-spec", spec, "-workers", strconv.Itoa(r.pool), "-csv", csv}, extra...)
}

// checkCSV verifies one pass's per-scenario report: rows for indices
// 0..n-1, zero bound violations, and — when want is non-nil — the
// exact bytes of the reference report. It returns the CSV bytes.
func (r *run) checkCSV(label, path string, n int, want []byte) []byte {
	got, err := os.ReadFile(path)
	if err != nil {
		r.mismatch("%s: %v", label, err)
		return nil
	}
	if want != nil && !bytes.Equal(got, want) {
		r.mismatch("%s: CSV differs from the reference report", label)
		return got
	}
	lines := strings.Split(strings.TrimSpace(string(got)), "\n")
	if lines[0] != strings.Join(csvColumns, ",") {
		r.mismatch("%s: unexpected CSV header %q", label, lines[0])
		return got
	}
	if len(lines) != n+1 {
		r.mismatch("%s: %d CSV rows, want %d", label, len(lines)-1, n)
		return got
	}
	var violating []string
	for i, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != len(csvColumns) || f[0] != strconv.Itoa(i) {
			r.mismatch("%s: row %d malformed: %q", label, i, line)
			return got
		}
		if f[csvViolations] != "0" {
			violating = append(violating, f[0]+":"+f[csvViolations])
		}
	}
	if len(violating) > 0 {
		// Each scenario whose simulation exceeded an analytic bound is a
		// failed operation: the bound it reported is wrong.
		r.fail(len(violating), "%s: %d scenarios exceed their bounds (index:violations %s)",
			label, len(violating), strings.Join(violating, " "))
	}
	return got
}

// boundsExceeded is how `symtago campaign` explains exit status 1 when
// simulated observations exceeded their analytic bounds. The pass ran
// to completion and wrote its report; checkCSV counts the violations.
const boundsExceeded = "observations exceeded compositional bounds"

// runCampaign runs one campaign pass. A pass that completed but found
// bound violations is returned without error, so its time is measured
// and its violations are counted from the CSV.
func runCampaign(bin string, args ...string) (pass, error) {
	p, err := runPass(bin, args...)
	if err != nil && strings.Contains(p.Stderr, boundsExceeded) {
		return p, nil
	}
	return p, err
}

// csvColumns is the header of `symtago campaign -csv`; the indices
// below name the columns the checks read.
var csvColumns = strings.Split("index,seed,buses,messages,gateways,tdma,worst_stuffing,burst_errors,converged,iterations,schedulable,miss_count,max_utilization,paths,bounded_paths,sim_runs,frames,violations,losses,loss_predicted,min_margin_pct,changes,perturbed_schedulable,flipped,cache_hits,cache_misses,hit_rate", ",")

const (
	csvConverged   = 8
	csvSchedulable = 10
	csvFrames      = 16
	csvViolations  = 17
	csvCacheHits   = 24
	csvCacheMisses = 25
)

// passFigures collects per-pass figures. Each is reported as the median
// over the run's passes: a pass that straddles a burst of load from
// outside (or the slow first pass after the machine idled) moves a
// median little and a sum a lot.
type passFigures struct {
	scenarios            int
	wall                 time.Duration // pass time so far, for the run's window
	perSec, cpuMS, rssMB []float64
}

func (f *passFigures) add(p pass, n int, extraCPU time.Duration, extraRSS float64) {
	f.scenarios += n
	f.wall += p.Wall
	f.perSec = append(f.perSec, float64(n)/p.Wall.Seconds())
	f.cpuMS = append(f.cpuMS, ms(p.CPU+extraCPU)/float64(n))
	f.rssMB = append(f.rssMB, p.RSSMB+extraRSS)
}

func (r *run) report(setup []float64, f passFigures) error {
	if len(f.perSec) == 0 {
		return fmt.Errorf("no pass completed")
	}
	fmt.Fprintf(os.Stderr, "symbench: %d set-ups, %d measured passes, %d scenarios\n", len(setup), len(f.perSec), f.scenarios)
	return r.setAll([]figure{
		{"setup_s", "s", median(setup)},
		{"scenarios_per_s", "1/s", median(f.perSec)},
		{"cpu_ms_per_scenario", "ms", median(f.cpuMS)},
		{"peak_rss_mb", "MB", median(f.rssMB)},
	})
}

// corpusSeed is the seed of the default spec, the corpus `symtago
// campaign` runs when given no spec. Every campaign pass of every run
// uses it, so passes repeat the same work and their figures differ only
// by the machine. The benchmark's --seed does not choose the corpus:
// other corpus seeds hold scenarios whose simulation exceeds its
// analytic bound, on which `symtago campaign` fails (README.md, Seeds).
const corpusSeed = 1

// setupRepeats is the fewest set-ups a run times; set-up is reported
// as their median. l2Cycles is campaign-l2's fewest cycles.
const (
	setupRepeats = 7
	l2Cycles     = 12
)

// refPrefix is the scenario count of the per-corpus reference run.
const refPrefix = 32

// corpus is the run's spec file and its reference report prefix.
type corpus struct {
	spec string
	ref  []byte // CSV header plus the first refPrefix rows
}

// newCorpus writes the default spec's first count scenarios and
// computes their reference: the first refPrefix scenarios run serially
// (-workers 1). Every report of the corpus must begin with exactly
// these bytes — reports are identical for any worker count, cache
// state or execution path.
func (r *run) newCorpus(count int) (corpus, error) {
	path := r.scratch("spec.txt")
	if err := os.WriteFile(path, []byte(specText(corpusSeed, count)), 0o644); err != nil {
		return corpus{}, err
	}
	csv := r.scratch("ref.csv")
	if _, err := runCampaign(r.bin, "campaign", "-spec", path, "-n", strconv.Itoa(refPrefix), "-workers", "1", "-csv", csv); err != nil {
		return corpus{}, fmt.Errorf("reference run: %w", err)
	}
	ref := r.checkCSV("reference run", csv, refPrefix, nil)
	r.attempted += refPrefix
	return corpus{spec: path, ref: ref}, nil
}

// checkPass checks one pass's report against its corpus: count rows,
// zero bound violations, the reference prefix byte for byte, and —
// when full is non-nil — exactly the bytes of full.
func (r *run) checkPass(label string, c corpus, csv string, count int, full []byte) []byte {
	got := r.checkCSV(label, csv, count, full)
	if !bytes.HasPrefix(got, c.ref) {
		r.mismatch("%s: report does not begin with the serial reference rows", label)
	}
	return got
}

// warmUp is a campaign workload's set-up: load the binary (`symtago
// help`), so a pass never pays for a cold one. It runs before every
// pass, so the set-up median spans the whole run rather than its first
// moments. It does no analysis: a one-scenario campaign would make
// set-up depend on how heavy the corpus's first scenario is.
func (r *run) warmUp() (float64, error) {
	t0 := time.Now()
	_, err := runPass(r.bin, "help")
	return time.Since(t0).Seconds(), err
}

// measureCampaign: the default-spec corpus run locally, memory-only,
// with a pool of nproc workers, pass after pass.
func measureCampaign(r *run) error {
	c, err := r.newCorpus(campaignSize)
	if err != nil {
		return err
	}
	var setup []float64
	var f passFigures
	for f.wall < r.window || len(setup) < setupRepeats {
		secs, err := r.warmUp()
		if err != nil {
			return err
		}
		setup = append(setup, secs)
		csv := r.scratch("campaign.csv")
		p, err := runCampaign(r.bin, r.campaignArgs(c.spec, csv)...)
		r.op(campaignSize, err == nil)
		if err != nil {
			r.mismatch("campaign pass: %v", err)
			continue
		}
		r.checkPass("campaign pass", c, csv, campaignSize, nil)
		f.add(p, campaignSize, 0, 0)
	}
	return r.report(setup, f)
}

// measureL2: cycles over the default spec's first l2Size scenarios,
// each against a fresh -cache-dir: a cold pass fills it, then a warm
// rerun reads it and must report the same bytes. The warm passes are
// measured. The fill's time swings with the disk's writeback (15-36 ms
// a scenario on one box), so it is printed, not gated; set-up is the
// same warm-up as campaign's. The figures are medians over cycles.
func measureL2(r *run) error {
	c, err := r.newCorpus(l2Size)
	if err != nil {
		return err
	}
	var setup, fill []float64
	var f passFigures
	for k, start := 0, time.Now(); k < l2Cycles || time.Since(start) < r.window; k++ {
		secs, err := r.warmUp()
		if err != nil {
			return err
		}
		setup = append(setup, secs)
		dir := r.scratch(fmt.Sprintf("l2-%d", k))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		csv := r.scratch("l2.csv")
		cold, err := runCampaign(r.bin, r.campaignArgs(c.spec, csv, "-cache-dir", dir)...)
		r.op(l2Size, err == nil)
		if err != nil {
			r.mismatch("cold pass: %v", err)
			os.RemoveAll(dir)
			continue
		}
		fill = append(fill, l2Size/cold.Wall.Seconds())
		coldCSV := r.checkPass("cold pass", c, csv, l2Size, nil)
		warm, err := runCampaign(r.bin, r.campaignArgs(c.spec, csv, "-cache-dir", dir)...)
		r.op(l2Size, err == nil)
		if err != nil {
			r.mismatch("warm pass: %v", err)
		} else {
			r.checkPass("warm pass", c, csv, l2Size, coldCSV)
			if !diskHit.MatchString(warm.Stdout) {
				r.mismatch("warm pass: no disk cache hits reported")
			}
			f.add(warm, l2Size, 0, 0)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.info("fill_scenarios_per_s", "1/s", median(fill))
	return r.report(setup, f)
}

// diskHit matches the disk-cache stats line of a warm run.
var diskHit = regexp.MustCompile(`disk cache: \d+ entries, \d+ B, [1-9]\d* hits`)

// wireStats parses the coordinator's stats line.
var wireStats = regexp.MustCompile(`distributed: (\d+) shards, (\d+) retries, (\d+) workers dropped, (\d+) B on wire`)

// fleet is a running pair of shard workers.
type fleet struct {
	procs []*proc
	addrs []string
}

func (r *run) startFleet() (*fleet, error) {
	fl := &fleet{}
	per := r.pool / 2
	if per < 1 {
		per = 1
	}
	for i := 0; i < 2; i++ {
		addr, err := freeAddr()
		if err != nil {
			fl.stop()
			return nil, err
		}
		p, err := start(r.bin, "worker", "-addr", addr, "-workers", strconv.Itoa(per))
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.procs = append(fl.procs, p)
		fl.addrs = append(fl.addrs, "http://"+addr)
	}
	for i, p := range fl.procs {
		if err := waitHealthy(p, fl.addrs[i]+"/healthz"); err != nil {
			fl.stop()
			return nil, err
		}
	}
	return fl, nil
}

// stop ends the workers and returns their summed CPU time and peak
// RSS.
func (fl *fleet) stop() (cpu time.Duration, rssMB float64, err error) {
	for _, p := range fl.procs {
		ps, perr := p.stop()
		if perr != nil && err == nil {
			err = perr
		}
		if ps != nil {
			c, m := usage(ps)
			cpu += c
			rssMB += m
		}
	}
	return cpu, rssMB, err
}

// measureFleet: the default-spec corpus streamed in small shards to
// two `symtago worker` processes. Each pass starts a fresh pair;
// starting it until both answer is this workload's set-up.
func measureFleet(r *run) error {
	c, err := r.newCorpus(campaignSize)
	if err != nil {
		return err
	}
	var setup, wire []float64
	var f passFigures
	for f.wall < r.window || len(setup) < setupRepeats {
		t0 := time.Now()
		fl, err := r.startFleet()
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		csv := r.scratch("fleet.csv")
		p, perr := runCampaign(r.bin, r.campaignArgs(c.spec, csv,
			"-workers-addr", strings.Join(fl.addrs, ","), "-shard", strconv.Itoa(fleetShard))...)
		wcpu, wrss, serr := fl.stop()
		if serr != nil {
			return serr
		}
		r.op(campaignSize, perr == nil)
		if perr != nil {
			r.mismatch("fleet pass: %v", perr)
			continue
		}
		r.checkPass("fleet pass", c, csv, campaignSize, nil)
		m := wireStats.FindStringSubmatch(p.Stderr)
		if m == nil {
			r.mismatch("fleet pass: no distributed stats line")
			continue
		}
		shards, _ := strconv.Atoi(m[1])
		retries, _ := strconv.Atoi(m[2])
		bytesOnWire, _ := strconv.ParseFloat(m[4], 64)
		// A retried shard attempt is a failed operation.
		r.attempted += shards + retries
		r.failed += retries
		if m[3] != "0" {
			r.mismatch("fleet pass: %s workers dropped", m[3])
		}
		wire = append(wire, bytesOnWire/campaignSize)
		f.add(p, campaignSize, wcpu, wrss)
	}
	r.info("wire_bytes_per_scenario", "B", median(wire))
	return r.report(setup, f)
}
