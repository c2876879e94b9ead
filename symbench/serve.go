package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// serve-revisions parameters.
const (
	// platforms bounds the scenario indices sessions draw from: later
	// sessions on a platform reuse converged results in the server's
	// shared what-if store, first visits do not. The pool is large so
	// that its mean session cost varies little from seed to seed.
	platforms = 1024
	// tenants spreads sessions so each stays well under the server's
	// default 250 req/s per-tenant rate.
	tenants = 8
	// serveRate is the open loop's offered request rate, about half the
	// two-connection closed-loop capacity of a 2-CPU box. It is fixed so
	// that two commits are offered the same load.
	serveRate = 850.0
	// thinkTime spaces the requests of one session in the schedule.
	thinkTime = time.Millisecond
	// sliceLen is the closed loop's sampling period: about 50 sessions.
	sliceLen = 250 * time.Millisecond
	// replaySample is how many open-loop sessions are replayed serially
	// on a fresh server and compared byte for byte.
	replaySample = 12
)

// platform is one scenario of the pool with its drawn change script.
type platform struct {
	index int
	lines []string
}

// loadPlatforms draws the pool: each platform's changes are the
// scenario's own what-if perturbation, one String() line per change.
func loadPlatforms(seed int64) ([]platform, error) {
	scs, err := scenario.GenerateRange(scenario.Spec{Seed: seed, Count: platforms}, 0, platforms)
	if err != nil {
		return nil, err
	}
	out := make([]platform, len(scs))
	for i := range scs {
		_, changes, err := scs[i].Build()
		if err != nil {
			return nil, fmt.Errorf("platform %d: %w", i, err)
		}
		p := platform{index: i}
		for _, c := range changes {
			p.lines = append(p.lines, c.String())
		}
		out[i] = p
	}
	return out, nil
}

// session is one drawn revision session.
type session struct {
	n      int // draw order
	plat   *platform
	tenant string
	id     string // server-assigned; empty until created
	failed bool
	bodies [][]byte // responses kept for the replay check
	keep   bool
}

// steps is the number of requests of the session: create, analysis,
// (changes, analysis) per change line, delete.
func (s *session) steps() int { return 3 + 2*len(s.plat.lines) }

// routeOf names the step's route.
func (s *session) routeOf(step int) string {
	switch {
	case step == 0:
		return "create"
	case step == s.steps()-1:
		return "delete"
	case step%2 == 1:
		return "analysis"
	}
	return "changes"
}

// sessionSource draws sessions from the pool on a seeded stream.
type sessionSource struct {
	mu    sync.Mutex
	rng   *rand.Rand
	plats []platform
	n     int
}

func (src *sessionSource) next() *session {
	src.mu.Lock()
	defer src.mu.Unlock()
	s := &session{
		n:      src.n,
		plat:   &src.plats[src.rng.Intn(len(src.plats))],
		tenant: "tenant" + strconv.Itoa(src.rng.Intn(tenants)),
	}
	src.n++
	return s
}

// conn is one client connection to the server.
type conn struct {
	base   string
	client *http.Client
	spec   string
	tag    bool // send benchReqHeader, for handler timing in the traced run
}

// benchReqHeader carries a request's id to the traced run's handler
// middleware.
const benchReqHeader = "X-Bench-Req"

func reqKey(s *session, step int) string { return strconv.Itoa(s.n) + "-" + strconv.Itoa(step) }

func newConn(base, spec string) *conn {
	return &conn{base: base, spec: spec, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// step issues request step of s and reports success. The change step
// sends one line; every step checks its status.
func (c *conn) step(s *session, step int) bool {
	if s.failed {
		return false
	}
	var method, path, body string
	want := http.StatusOK
	switch route := s.routeOf(step); route {
	case "create":
		method, path, body, want = "POST", fmt.Sprintf("/v1/sessions?index=%d", s.plat.index), c.spec, http.StatusCreated
	case "analysis":
		method, path = "GET", "/v1/sessions/"+s.id+"/analysis"
	case "changes":
		method, path, body = "POST", "/v1/sessions/"+s.id+"/changes", s.plat.lines[step/2-1]
	case "delete":
		method, path, want = "DELETE", "/v1/sessions/"+s.id, http.StatusNoContent
	}
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		s.failed = true
		return false
	}
	req.Header.Set("X-Tenant", s.tenant)
	if c.tag {
		req.Header.Set(benchReqHeader, reqKey(s, step))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		s.failed = true
		return false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != want {
		s.failed = true
		return false
	}
	switch {
	case step == 0:
		var created struct{ ID string }
		if json.Unmarshal(b, &created) != nil || created.ID == "" {
			s.failed = true
			return false
		}
		s.id = created.ID
	case s.keep && step < s.steps()-1:
		s.bodies = append(s.bodies, b)
	}
	return true
}

// scheduled is one open-loop request: step of a session, due at due.
type scheduled struct {
	s    *session
	step int
	due  time.Duration // offset from the start of the open loop
}

// schedule draws the open loop: sessions arrive as a Poisson process
// whose rate offers serveRate requests per second on average, each
// session's requests thinkTime apart, each session pinned to one
// connection so its requests stay in order. The plan depends only on
// the seed.
func schedule(src *sessionSource, span time.Duration, conns int) ([][]scheduled, []*session) {
	mean := 0.0
	for i := range src.plats {
		mean += float64(3 + 2*len(src.plats[i].lines))
	}
	mean /= float64(len(src.plats))
	gapMean := mean / serveRate // seconds between session arrivals
	arrivals := rand.New(rand.NewSource(src.rng.Int63()))
	plan := make([][]scheduled, conns)
	var sessions []*session
	// Spread the replayed sample over the whole window.
	every := int(span.Seconds()*serveRate/mean)/replaySample + 1
	for at := time.Duration(0); at < span; at += time.Duration(arrivals.ExpFloat64() * gapMean * float64(time.Second)) {
		s := src.next()
		sessions = append(sessions, s)
		s.keep = s.n%every == 0 && s.n/every < replaySample
		c := s.n % conns
		for k := 0; k < s.steps(); k++ {
			plan[c] = append(plan[c], scheduled{s: s, step: k, due: at + time.Duration(k)*thinkTime})
		}
	}
	for _, p := range plan {
		sort.SliceStable(p, func(i, j int) bool { return p[i].due < p[j].due })
	}
	return plan, sessions
}

// served is the outcome of one open-loop request.
type served struct {
	route string
	req   request
	ok    bool
}

// openLoop runs the plan: each connection sends its requests in due
// order, never before they are due.
func openLoop(conns []*conn, plan [][]scheduled) [][]served {
	out := make([][]served, len(conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for _, sc := range plan[ci] {
				due := t0.Add(sc.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := conns[ci].step(sc.s, sc.step)
				out[ci] = append(out[ci], served{route: sc.s.routeOf(sc.step), req: request{Due: due, Sent: sent, Done: time.Now()}, ok: ok})
			}
		}(ci)
	}
	wg.Wait()
	return out
}

// closedSlice is one slice of the closed loop: sessions completed in
// it and the server CPU it used.
type closedSlice struct {
	wall, cpu time.Duration
	sessions  int
}

// closedLoop runs whole sessions back to back on every connection for
// span, sampling completed sessions and the server's CPU time (pid)
// every sliceLen. It returns the slices and the requests attempted and
// failed.
func closedLoop(conns []*conn, src *sessionSource, span time.Duration, pid int) (slices []closedSlice, attempted, failed int, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var done atomic.Int64
	stop := make(chan struct{})
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := src.next()
				bad := 0
				for k := 0; k < s.steps(); k++ {
					if !c.step(s, k) {
						bad++
					}
				}
				mu.Lock()
				attempted += s.steps()
				failed += bad
				mu.Unlock()
				if bad == 0 {
					done.Add(1)
				}
			}
		}(c)
	}
	start := time.Now()
	last, lastDone := start, int64(0)
	lastCPU, err := procCPU(pid)
	for err == nil && time.Since(start) < span {
		time.Sleep(time.Until(last.Add(sliceLen)))
		now, n := time.Now(), done.Load()
		var cpu time.Duration
		if cpu, err = procCPU(pid); err == nil {
			slices = append(slices, closedSlice{wall: now.Sub(last), cpu: cpu - lastCPU, sessions: int(n - lastDone)})
			last, lastDone, lastCPU = now, n, cpu
		}
	}
	close(stop)
	wg.Wait()
	return slices, attempted, failed, err
}

// startServer launches `symtago serve` and waits until it is healthy.
func (r *run) startServer() (*proc, string, float64, error) {
	t0 := time.Now()
	addr, err := freeAddr()
	if err != nil {
		return nil, "", 0, err
	}
	p, err := start(r.bin, "serve", "-addr", addr)
	if err != nil {
		return nil, "", 0, err
	}
	base := "http://" + addr
	if err := waitHealthy(p, base+"/v1/healthz"); err != nil {
		p.stop()
		return nil, "", 0, err
	}
	return p, base, time.Since(t0).Seconds(), nil
}

// measureServe: an open loop of revision sessions at a fixed rate
// (latencies), then a closed loop on the same connections (throughput
// in sessions per second), then a serial replay of a sample of the
// open-loop sessions on a fresh server, compared byte for byte.
func measureServe(r *run) error {
	plats, err := loadPlatforms(r.seed)
	if err != nil {
		return err
	}
	spec := specText(r.seed, platforms)
	src := &sessionSource{rng: rand.New(rand.NewSource(r.seed)), plats: plats}
	// The open loop gives the latency figures; the closed loop, with
	// the rest of the window, the gated throughput.
	openSpan := r.window * 3 / 10
	plan, openSessions := schedule(src, openSpan, r.pool)

	// Set-up is the median of setupRepeats server starts: throwaway
	// starts before and after the window, the measured server and the
	// replay server, so the median spans the whole run.
	var setup []float64
	throwaway := func(n int) error {
		for i := 0; i < n; i++ {
			p, _, secs, err := r.startServer()
			if err != nil {
				return err
			}
			if _, err := p.stop(); err != nil {
				return err
			}
			setup = append(setup, secs)
		}
		return nil
	}
	if err := throwaway(setupRepeats/2 - 1); err != nil {
		return err
	}

	p, base, secs, err := r.startServer()
	if err != nil {
		return err
	}
	setup = append(setup, secs)
	conns := make([]*conn, r.pool)
	for i := range conns {
		conns[i] = newConn(base, spec)
	}
	t0 := time.Now()
	res := openLoop(conns, plan)
	openWall := time.Since(t0)
	slices, att, bad, lerr := closedLoop(conns, src, r.window-openWall, p.cmd.Process.Pid)
	rss, rerr := procPeakRSS(p.cmd.Process.Pid)
	shed := scrapeShed(base)
	if _, err := p.stop(); err != nil {
		return err
	}
	if lerr != nil || rerr != nil {
		return fmt.Errorf("server usage: %v %v", lerr, rerr)
	}
	r.op(att, true)
	r.failed += bad

	var lat, lag []float64
	byRoute := map[string][]float64{}
	for _, cres := range res {
		reqs := make([]request, len(cres))
		for i, s := range cres {
			reqs[i] = s.req
			r.op(1, s.ok)
		}
		l, g := openLoopTimes(reqs)
		for i, s := range cres {
			lat = append(lat, ms(l[i]))
			byRoute[s.route] = append(byRoute[s.route], ms(l[i]))
		}
		lag = append(lag, durationsMS(g)...)
	}
	openDone := 0
	for _, s := range openSessions {
		if !s.failed {
			openDone++
		}
	}

	// Replay outside the timed window, serially, on a fresh server.
	rp, rbase, secs, err := r.startServer()
	if err != nil {
		return err
	}
	setup = append(setup, secs)
	replay := newConn(rbase, spec)
	for _, s := range openSessions {
		if !s.keep || s.failed {
			continue
		}
		twin := &session{n: s.n, plat: s.plat, tenant: s.tenant, keep: true}
		for k := 0; k < twin.steps(); k++ {
			r.op(1, replay.step(twin, k))
		}
		if len(twin.bodies) != len(s.bodies) {
			r.mismatch("replay of session %d: %d responses, want %d", s.n, len(twin.bodies), len(s.bodies))
			continue
		}
		for i := range s.bodies {
			if !bytes.Equal(s.bodies[i], twin.bodies[i]) {
				r.mismatch("replay of session %d: response %d differs", s.n, i)
			}
		}
	}
	if _, err := rp.stop(); err != nil {
		return err
	}
	if err := throwaway(setupRepeats - len(setup)); err != nil {
		return err
	}

	r.info("offered_rps", "1/s", serveRate)
	r.info("open_loop_achieved_rps", "1/s", float64(len(lat))/openWall.Seconds())
	r.info("shed", "count", shed)
	if t, ok := tailOf(lat); ok {
		r.info("latency_p50_ms", "ms", median(lat))
		r.info(fmt.Sprintf("latency_p%g_ms", t.Pct), "ms", t.Value)
	}
	for _, route := range []string{"changes", "analysis"} {
		if t, ok := tailOf(byRoute[route]); ok {
			r.info(fmt.Sprintf("%s_p%g_ms", route, t.Pct), "ms", t.Value)
		}
	}
	if t, ok := tailOf(lag); ok {
		r.info(fmt.Sprintf("loadgen_lag_p%g_ms", t.Pct), "ms", t.Value)
	}
	var perSec, cpuMS []float64
	closed := 0
	for _, sl := range slices {
		closed += sl.sessions
		if sl.sessions > 0 {
			perSec = append(perSec, float64(sl.sessions)/sl.wall.Seconds())
			cpuMS = append(cpuMS, ms(sl.cpu)/float64(sl.sessions))
		}
	}
	if len(perSec) == 0 {
		return fmt.Errorf("serve-revisions: no session completed in the closed loop")
	}
	fmt.Fprintf(os.Stderr, "symbench: %d set-ups; %d open-loop sessions; %d closed-loop sessions in %d slices\n",
		len(setup), openDone, closed, len(slices))
	// Throughput and CPU are medians over the closed loop's slices, so a
	// burst of load from outside, or one of the rare sessions whose
	// analysis costs tens of times the mean, moves them little.
	return r.setAll([]figure{
		{"setup_s", "s", median(setup)},
		{"scenarios_per_s", "1/s", median(perSec)},
		{"cpu_ms_per_scenario", "ms", median(cpuMS)},
		{"peak_rss_mb", "MB", rss},
	})
}

// scrapeShed sums the server's per-route shed counters; -1 when
// /metrics cannot be read.
func scrapeShed(base string) float64 {
	text, err := scrape(base)
	if err != nil {
		return -1
	}
	return promSum(text, "symtago_request_shed_total{")
}

// promSum adds up the samples of a Prometheus text exposition whose
// series starts with prefix (a name, or a name and its first labels).
func promSum(text, prefix string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

func scrape(base string) (string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
