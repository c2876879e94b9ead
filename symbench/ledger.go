package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/contenthash"
	"repro/internal/distrib"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/whatif"
)

// The traced run calls each layer's public entry points from this
// file and times the calls; nothing inside the program is traced. It
// times every layer on every workload, so each workload reports the
// same per-layer rows: the layers the workload stresses run at the
// workload's own size, the ones it bypasses on a probeSize prefix of
// the same seed.

// probeSize is the scenario count of a bypassed layer's probe.
const probeSize = 48

// ledgerSize sizes the traced run's phases.
type ledgerSize struct {
	campaign, cache, distrib int
	// serveMain gives the service phase the workload's full share of
	// the run instead of a short probe.
	serveMain bool
}

// campaign.Config defaults the product applies to every scenario; the
// traced pipeline must use the same to reproduce the product rows.
const (
	simSeeds      = 2
	simDuration   = 200 * time.Millisecond
	storeCapacity = 4096
)

func runLedger(r *run, sz ledgerSize) error {
	start := time.Now()
	// The corpus of the end-to-end run's passes.
	spec := scenario.Spec{Seed: corpusSeed, Count: max(sz.campaign, sz.cache, sz.distrib)}
	rows, err := ledgerCampaign(r, spec, sz.campaign)
	if err != nil {
		return err
	}
	if err := ledgerCache(r, spec, sz.cache); err != nil {
		return err
	}
	if err := ledgerDistrib(r, spec, sz.distrib, rows); err != nil {
		return err
	}
	// The service phase takes the rest of the window, and at least a
	// fifth of it (half on serve-revisions).
	span := max(r.window-time.Since(start), r.window/5)
	if sz.serveMain {
		span = max(span, r.window/2)
	}
	return ledgerService(r, span)
}

// traceRow is one scenario of the traced pipeline: per-stage times and
// the outcome fields the product's CSV row also carries.
type traceRow struct {
	build, analyze, simulate, perturb, total time.Duration

	converged, schedulable bool
	frames, violations     int
	hits, misses           uint64
}

// traceScenario is campaign's per-scenario pipeline — build, baseline
// analysis, netsim cross-validation, what-if perturbation — called
// stage by stage through the layers' public functions.
func traceScenario(sc *scenario.Scenario) (traceRow, error) {
	var row traceRow
	t0 := time.Now()
	sys, changes, err := sc.Build()
	if err != nil {
		return row, err
	}
	topo, err := netsim.FromSystem(sys)
	if err != nil {
		return row, err
	}
	t1 := time.Now()
	sess := whatif.NewSystemSession(sys, whatif.Options{Store: whatif.NewStore(storeCapacity), Workers: 1})
	base, err := sess.Analyze(0)
	if err != nil {
		return row, err
	}
	t2 := time.Now()
	row.converged, row.schedulable = base.Converged, base.AllSchedulable()
	if base.Converged {
		st, err := campaign.CrossValidate(sys, base, topo, simSeeds, simDuration)
		if err != nil {
			return row, err
		}
		row.frames, row.violations = st.Frames, st.Violations
	}
	t3 := time.Now()
	if err := sess.Apply(changes...); err != nil {
		return row, err
	}
	if _, err := sess.Analyze(0); err != nil {
		return row, err
	}
	t4 := time.Now()
	st := sess.Stats()
	row.hits, row.misses = st.Hits+st.ReportHits, st.Misses
	row.build, row.analyze, row.simulate, row.perturb = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return row, nil
}

// ledgerCampaign times the scenario, whatif, netsim and campaign-pool
// layers over n scenarios and checks every row against the product's
// own untraced run of the same spec.
func ledgerCampaign(r *run, spec scenario.Spec, n int) ([]traceRow, error) {
	t0 := time.Now()
	scs, err := scenario.GenerateRange(spec, 0, n)
	if err != nil {
		return nil, err
	}
	generate := time.Since(t0)

	rows := make([]traceRow, n)
	errs := make([]error, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := time.Now()
	parallel.For(n, r.pool, func(_, i int) {
		s0 := time.Now()
		row, err := traceScenario(&scs[i])
		row.total = time.Since(s0)
		rows[i], errs[i] = row, err
	})
	wall := time.Since(w0)
	runtime.ReadMemStats(&m1)
	if err := parallel.FirstError(errs); err != nil {
		return nil, fmt.Errorf("traced pipeline: %w", err)
	}

	// The product's rows for the same spec, untraced.
	specPath := r.scratch("ledger-spec.txt")
	if err := os.WriteFile(specPath, []byte(specText(spec.Seed, n)), 0o644); err != nil {
		return nil, err
	}
	csv := r.scratch("ledger.csv")
	product, err := runCampaign(r.bin, r.campaignArgs(specPath, csv)...)
	if err != nil {
		return nil, fmt.Errorf("untraced product pass: %w", err)
	}
	r.checkCSV("untraced product pass", csv, n, nil)
	r.compareRows(csv, rows)

	var build, analyze, simulate, perturb, total time.Duration
	var frames int
	var hits, misses uint64
	totals := make([]float64, n)
	for i, row := range rows {
		build += row.build
		analyze += row.analyze
		simulate += row.simulate
		perturb += row.perturb
		total += row.total
		frames += row.frames
		hits += row.hits
		misses += row.misses
		totals[i] = ms(row.total)
	}
	stages := build + analyze + simulate + perturb
	coverage := float64(stages) / float64(total)
	if coverage < 0.95 {
		r.mismatch("traced stages cover %.1f%% of scenario time, want >= 95%%", 100*coverage)
	}
	tl, ok := tailOf(totals)
	if !ok {
		return nil, fmt.Errorf("campaign phase: %d scenarios is too few for a tail", n)
	}
	fmt.Fprintf(os.Stderr, "symbench: scenario time %s; stage shares build %.1f%% analyze %.1f%% simulate %.1f%% perturb %.1f%%\n",
		tl, 100*float64(build)/float64(total), 100*float64(analyze)/float64(total),
		100*float64(simulate)/float64(total), 100*float64(perturb)/float64(total))
	traced := float64(n) / (generate + wall).Seconds()
	untraced := float64(n) / product.Wall.Seconds()
	r.info("traced_scenarios_per_s", "1/s", traced)
	r.info("untraced_scenarios_per_s", "1/s", untraced)
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	return rows, r.setAll([]figure{
		{"scenario.generate_ms", "ms", per(generate)},
		{"scenario.build_ms", "ms", per(build)},
		{"whatif.analyze_ms", "ms", per(analyze)},
		{"whatif.perturb_ms", "ms", per(perturb)},
		{"whatif.hit_ratio", "ratio", float64(hits) / float64(hits+misses)},
		{"netsim.simulate_ms", "ms", per(simulate)},
		{"netsim.frames_per_s", "1/s", float64(frames) / simulate.Seconds()},
		{"campaign.scenario_tail_ms", "ms", tl.Value},
		{"campaign.pool_busy_ratio", "ratio", float64(total) / (float64(wall) * float64(r.pool))},
		{"campaign.stage_coverage", "ratio", coverage},
		{"go.alloc_kb_per_scenario", "KB", float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)},
		{"trace.speed_ratio", "ratio", traced / untraced},
	})
}

// compareRows checks the traced rows against the product CSV:
// converged, schedulable, frames, violations, cache hits and misses.
func (r *run) compareRows(csvPath string, rows []traceRow) {
	b, err := os.ReadFile(csvPath)
	if err != nil {
		r.mismatch("product CSV: %v", err)
		return
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")[1:]
	r.op(len(rows), true)
	if len(lines) != len(rows) {
		r.mismatch("product CSV has %d rows, traced run %d", len(lines), len(rows))
		return
	}
	for i, line := range lines {
		f := strings.Split(line, ",")
		row := rows[i]
		want := []string{
			strconv.FormatBool(row.converged), strconv.FormatBool(row.schedulable),
			strconv.Itoa(row.frames), strconv.Itoa(row.violations),
			strconv.FormatUint(row.hits, 10), strconv.FormatUint(row.misses, 10),
		}
		if len(f) != len(csvColumns) {
			r.mismatch("product CSV row %d malformed", i)
			continue
		}
		got := []string{f[csvConverged], f[csvSchedulable], f[csvFrames], f[csvViolations], f[csvCacheHits], f[csvCacheMisses]}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			r.mismatch("scenario %d: traced row %v, product row %v", i, want, got)
		}
	}
}

type figure struct {
	name, unit string
	v          float64
}

func (r *run) setAll(fs []figure) error {
	for _, f := range fs {
		if err := r.set(f.name, f.unit, f.v); err != nil {
			return err
		}
	}
	return nil
}

// timedDisk times the calls a cache.Tiered makes into its second
// level. It forwards cache.Leveled, so the pinned statistics of the
// sessions above it are untouched.
type timedDisk struct {
	*cache.Disk
	mu               sync.Mutex
	gets, puts, hits int
	getTime, putTime time.Duration
}

func (t *timedDisk) Get(key contenthash.Digest) (any, bool) {
	t0 := time.Now()
	v, ok := t.Disk.Get(key)
	d := time.Since(t0)
	t.mu.Lock()
	t.gets++
	t.getTime += d
	if ok {
		t.hits++
	}
	t.mu.Unlock()
	return v, ok
}

func (t *timedDisk) Put(key contenthash.Digest, v any) {
	t0 := time.Now()
	t.Disk.Put(key, v)
	d := time.Since(t0)
	t.mu.Lock()
	t.puts++
	t.putTime += d
	t.mu.Unlock()
}

func (t *timedDisk) GetLeveled(key contenthash.Digest) (any, bool, bool) {
	v, ok := t.Get(key)
	return v, true, ok
}
func (t *timedDisk) GetPrimary(key contenthash.Digest) (any, bool) { return t.Get(key) }
func (t *timedDisk) PutPrimary(key contenthash.Digest, v any)      { t.Put(key, v) }

// ledgerCache times cache.Disk as the campaign's shared second level:
// a cold pass fills a fresh directory, then uncached and warm passes
// alternate (warm through a new Disk over the same directory, as a
// rerun would open it). The pass times are medians of cacheReps. All
// passes must produce identical rows.
func ledgerCache(r *run, spec scenario.Spec, n int) error {
	scs, err := scenario.GenerateRange(spec, 0, n)
	if err != nil {
		return err
	}
	dir := r.scratch("ledger-l2")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var want string
	pass := func(store cache.Store) (float64, error) {
		cfg := campaign.Config{Workers: r.pool}
		if store != nil {
			cfg.Cache = store
		}
		t0 := time.Now()
		rows, err := campaign.RunScenarios(context.Background(), scs, cfg)
		d := time.Since(t0)
		r.op(n, err == nil)
		if got := fmt.Sprint(rows); want == "" {
			want = got
		} else if got != want {
			r.mismatch("cache phase: rows differ between cold, warm and uncached passes")
		}
		return ms(d), err
	}
	open := func() (*timedDisk, error) {
		d, err := cache.NewDisk(dir, 0)
		return &timedDisk{Disk: d}, err
	}
	cold, err := open()
	if err != nil {
		return err
	}
	tCold, err := pass(cold)
	if err != nil {
		return err
	}
	warm, err := open()
	if err != nil {
		return err
	}
	const cacheReps = 3
	var tNone, tWarm []float64
	for i := 0; i < cacheReps; i++ {
		t, err := pass(nil)
		if err != nil {
			return err
		}
		tNone = append(tNone, t)
		if t, err = pass(warm); err != nil {
			return err
		}
		tWarm = append(tWarm, t)
	}
	if warm.gets == 0 || cold.puts == 0 {
		return fmt.Errorf("cache phase: the disk level was not used (%d gets, %d puts)", warm.gets, cold.puts)
	}
	per := float64(n)
	r.info("cache.cold_pass_ms", "ms", tCold)
	r.info("cache.nocache_pass_ms", "ms", median(tNone))
	r.info("cache.warm_pass_ms", "ms", median(tWarm))
	return r.setAll([]figure{
		{"cache.disk.get_us", "us", float64(warm.getTime) / 1e3 / float64(warm.gets)},
		{"cache.disk.put_us", "us", float64(cold.putTime) / 1e3 / float64(cold.puts)},
		{"cache.disk.hit_ratio", "ratio", float64(warm.hits) / float64(warm.gets)},
		{"cache.disk.records_per_scenario", "count", float64(cold.Disk.Stats().Entries) / per},
		{"cache.disk.spent_ms_per_scenario", "ms", ms(cold.getTime+cold.putTime) / per},
		// Pool-busy time the warm tier saves against no cache; negative
		// when reading the tier costs more than recomputing.
		{"cache.disk.saved_ms_per_scenario", "ms", (median(tNone) - median(tWarm)) * float64(r.pool) / per},
	})
}

// intervals records busy spans of one worker.
type intervals struct {
	mu    sync.Mutex
	spans [][2]time.Time
}

func (iv *intervals) add(a, b time.Time) {
	iv.mu.Lock()
	iv.spans = append(iv.spans, [2]time.Time{a, b})
	iv.mu.Unlock()
}

// total sums the spans and the length of their union (time with at
// least one span open).
func (iv *intervals) total() (sum, union time.Duration) {
	s := append([][2]time.Time(nil), iv.spans...)
	sort.Slice(s, func(i, j int) bool { return s[i][0].Before(s[j][0]) })
	var end time.Time
	for _, sp := range s {
		sum += sp[1].Sub(sp[0])
		switch {
		case sp[0].After(end):
			union += sp[1].Sub(sp[0])
			end = sp[1]
		case sp[1].After(end):
			union += sp[1].Sub(end)
			end = sp[1]
		}
	}
	return sum, union
}

// ledgerDistrib times a streamed distributed campaign over n scenarios
// on two in-process workers behind loopback HTTP: the coordinator's
// per-shard attempt time (distrib.Event.ElapsedNS) against the
// workers' handler time, wire bytes and worker occupancy. The merged
// rows must match the traced pipeline's.
func ledgerDistrib(r *run, spec scenario.Spec, n int, ref []traceRow) error {
	per := max(r.pool/2, 1)
	busy := []*intervals{{}, {}}
	var urls []string
	for i := range busy {
		w := distrib.NewWorker(distrib.WorkerConfig{Workers: per})
		h := w.Handler()
		iv := busy[i]
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(rw, req)
			if req.URL.Path == distrib.ShardPath {
				iv.add(t0, time.Now())
			}
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	dspec := spec
	dspec.Count = n
	job, err := campaign.NewSpecJob(dspec, campaign.Config{Workers: r.pool})
	if err != nil {
		return err
	}
	var shardNS []float64
	t0 := time.Now()
	rep, stats, err := distrib.RunStats(context.Background(), job, distrib.Options{
		Workers: urls, ShardSize: fleetShard,
		OnEvent: func(e distrib.Event) {
			if e.Type == distrib.EventShardDone {
				shardNS = append(shardNS, float64(e.ElapsedNS))
			}
		},
	})
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("distributed campaign: %w", err)
	}
	r.attempted += stats.Shards + stats.Retries
	r.failed += stats.Retries
	r.info("distrib.retries", "count", float64(stats.Retries))
	if len(rep.Rows) > len(ref) {
		return fmt.Errorf("distrib phase: %d rows, traced pipeline only %d", len(rep.Rows), len(ref))
	}
	for i, row := range rep.Rows {
		want := ref[i]
		if row.Converged != want.converged || row.Schedulable != want.schedulable ||
			row.Frames != want.frames || row.Violations != want.violations ||
			row.CacheHits != want.hits || row.CacheMisses != want.misses {
			r.mismatch("distributed row %d differs from the traced pipeline", i)
		}
	}
	var handler, union time.Duration
	shards := 0
	for _, iv := range busy {
		s, u := iv.total()
		handler += s
		union += u
		shards += len(iv.spans)
	}
	shardMS := sum(shardNS) / 1e6 / float64(len(shardNS))
	workerMS := ms(handler) / float64(shards)
	return r.setAll([]figure{
		{"distrib.shard_ms", "ms", shardMS},
		{"distrib.worker_shard_ms", "ms", workerMS},
		{"distrib.overhead_ms_per_shard", "ms", shardMS - workerMS},
		{"distrib.wire_bytes_per_scenario", "B", float64(stats.BytesOnWire) / float64(n)},
		{"distrib.worker_busy_ratio", "ratio", float64(union) / (float64(wall) * float64(len(busy)))},
	})
}

// handlerTimes records the service handler's time per benchmark
// request, keyed by the request's X-Bench-Req id.
type handlerTimes struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

// ledgerService runs the serve-revisions open loop for span against an
// in-process service.Server on loopback, with the handler timed from
// outside: handler tail per route, the client's own overhead, the
// shared what-if store's hit ratio (scraped from /metrics) and the
// generator's lag.
func ledgerService(r *run, span time.Duration) error {
	srv, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	ht := &handlerTimes{d: map[string]time.Duration{}}
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		if id := req.Header.Get(benchReqHeader); id != "" {
			ht.mu.Lock()
			ht.d[id] = time.Since(t0)
			ht.mu.Unlock()
		}
	}))
	defer ts.Close()

	plats, err := loadPlatforms(r.seed)
	if err != nil {
		return err
	}
	src := &sessionSource{rng: rand.New(rand.NewSource(r.seed)), plats: plats}
	plan, _ := schedule(src, span, r.pool)
	conns := make([]*conn, r.pool)
	for i := range conns {
		conns[i] = newConn(ts.URL, specText(r.seed, platforms))
		conns[i].tag = true
	}
	res := openLoop(conns, plan)

	byRoute := map[string][]float64{}
	var overhead, lag []float64
	for ci, cres := range res {
		reqs := make([]request, len(cres))
		for i, s := range cres {
			reqs[i] = s.req
			r.op(1, s.ok)
		}
		_, g := openLoopTimes(reqs)
		lag = append(lag, durationsMS(g)...)
		for i, s := range cres {
			id := reqKey(plan[ci][i].s, plan[ci][i].step)
			ht.mu.Lock()
			hd, ok := ht.d[id]
			ht.mu.Unlock()
			if !ok {
				continue // the request never reached the handler (failed above)
			}
			byRoute[s.route] = append(byRoute[s.route], ms(hd))
			overhead = append(overhead, ms(s.req.Done.Sub(s.req.Sent)-hd))
		}
	}
	text, err := scrape(ts.URL)
	if err != nil {
		return err
	}
	hits, misses := promSum(text, `symtago_cache_hits_total{tier="l1"} `), promSum(text, `symtago_cache_misses_total{tier="l1"} `)
	chg, ok1 := tailOf(byRoute["changes"])
	ana, ok2 := tailOf(byRoute["analysis"])
	lg, ok3 := tailOf(lag)
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("service phase: too few requests for a tail (%d changes, %d analyses)",
			len(byRoute["changes"]), len(byRoute["analysis"]))
	}
	fmt.Fprintf(os.Stderr, "symbench: service handler changes %s, analysis %s; generator lag %s\n", chg, ana, lg)
	return r.setAll([]figure{
		{"service.changes_handler_tail_ms", "ms", chg.Value},
		{"service.analysis_handler_tail_ms", "ms", ana.Value},
		{"service.client_overhead_p50_ms", "ms", median(overhead)},
		{"service.store_hit_ratio", "ratio", hits / (hits + misses)},
		{"loadgen.lag_tail_ms", "ms", lg.Value},
	})
}
