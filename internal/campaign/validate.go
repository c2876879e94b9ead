package campaign

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// SimStats aggregates a cross-validation: every observation of a
// holistic network simulation folded against its compositional bound.
type SimStats struct {
	// SimRuns counts completed simulation runs; Frames the frames they
	// sent.
	SimRuns, Frames int
	// Violations counts observations exceeding a bound (path latency,
	// per-message response, gateway backlog, unpredicted loss).
	Violations int
	// Losses counts instances lost inside gateways; LossPredicted
	// reports whether the analysis predicted loss anywhere.
	Losses        int
	LossPredicted bool
	// MinMarginPct is the tightest observed path margin,
	// 100*(bound-observed)/bound over bounded traced paths; NaN when
	// nothing was observed.
	MinMarginPct float64
}

// Bounds is the analysis side of a cross-validation, resolved once per
// topology: the simulated-hop bound of every traced path and the
// backlog bound and loss prediction of every gateway, both in topology
// order.
type Bounds struct {
	a        *core.Analysis
	Paths    []PathBound
	Gateways []GatewayBound
	// LossPredicted reports whether any gateway predicts loss.
	LossPredicted bool
}

// PathBound is one traced path's bound over its simulated hops.
// Unbounded paths are still traced but never checked.
type PathBound struct {
	Name    string
	Bound   time.Duration
	Bounded bool
}

// GatewayBound is one gateway's queueing bound and whether the
// analysis predicts loss inside it (FIFO overflow or a buffer
// overwrite).
type GatewayBound struct {
	Name          string
	Backlog       int
	LossPredicted bool
}

// NewBounds resolves the bounds of topo (built from sys) under a.
func NewBounds(sys *core.System, a *core.Analysis, topo *netsim.Topology) *Bounds {
	b := &Bounds{a: a}
	for _, ps := range topo.Paths {
		bound, ok := netsim.SimulatedPathBound(sys, a, ps.Name)
		b.Paths = append(b.Paths, PathBound{Name: ps.Name, Bound: bound, Bounded: ok})
	}
	for _, g := range topo.Gateways {
		rep := a.GatewayReports[g.Name]
		predicted := rep.Overflow
		for _, fr := range rep.Flows {
			predicted = predicted || fr.OverwriteLoss
		}
		b.Gateways = append(b.Gateways, GatewayBound{Name: g.Name, Backlog: rep.Backlog, LossPredicted: predicted})
		b.LossPredicted = b.LossPredicted || predicted
	}
	return b
}

// RunCheck is one simulation run folded against its Bounds. Paths and
// Gateways are index-aligned with Bounds.Paths and Bounds.Gateways.
type RunCheck struct {
	// Frames counts the frames the run sent on CAN and TDMA buses.
	Frames int
	// Violations totals every bound the run exceeded;
	// MessageViolations is the share of messages whose observed
	// response exceeded their WCRT.
	Violations, MessageViolations int
	Paths                         []PathCheck
	Gateways                      []GatewayCheck
}

// PathCheck is one path's observation: Violation when the path is
// bounded and its MaxLatency exceeds the bound.
type PathCheck struct {
	*netsim.PathResult
	Violation bool
}

// GatewayCheck is one gateway's observation. BacklogViolation: the
// observed backlog exceeded the bound (which saturates to MaxInt on
// overloaded gateways, so the check stays valid there). LossViolation:
// instances were lost although the analysis predicted no loss.
type GatewayCheck struct {
	*netsim.GatewayResult
	BacklogViolation, LossViolation bool
}

// Check folds one simulation run of the bounded topology against the
// bounds: traced path latencies, per-message responses on CAN and TDMA
// buses, gateway backlogs, and loss only where predicted.
func (b *Bounds) Check(res *netsim.Result) RunCheck {
	var c RunCheck
	for _, pb := range b.Paths {
		pr := res.Path(pb.Name)
		c.Paths = append(c.Paths, PathCheck{pr, pb.Bounded && pr.MaxLatency > pb.Bound})
	}
	for _, br := range res.Buses {
		rep := b.a.BusReports[br.Name]
		for _, s := range br.Stats {
			c.Frames += s.Sent
			r := rep.ByName(s.Name)
			if r != nil && r.WCRT != rta.Unschedulable && s.Sent > 0 && s.MaxResponse > r.WCRT {
				c.MessageViolations++
			}
		}
	}
	for _, br := range res.TDMABuses {
		rep := b.a.TDMAReports[br.Name]
		for _, s := range br.Stats {
			c.Frames += s.Sent
			r := rep.ByName(s.Name)
			if r != nil && r.WCRT != tdma.Unschedulable && s.Sent > 0 && s.MaxResponse > r.WCRT {
				c.MessageViolations++
			}
		}
	}
	c.Violations = c.MessageViolations
	for _, pc := range c.Paths {
		if pc.Violation {
			c.Violations++
		}
	}
	for _, gb := range b.Gateways {
		gr := res.Gateway(gb.Name)
		gc := GatewayCheck{gr, gr.MaxBacklog > gb.Backlog, gr.Lost() > 0 && !gb.LossPredicted}
		if gc.BacklogViolation {
			c.Violations++
		}
		if gc.LossViolation {
			c.Violations++
		}
		c.Gateways = append(c.Gateways, gc)
	}
	return c
}

// CrossValidate simulates the topology over a seed fan and folds every
// observation against the analysis bounds (see Bounds.Check), tracking
// the tightest path margin. It is the per-scenario validation stage of
// the campaign, exported so services can validate a single uploaded
// system with exactly the campaign's checks.
func CrossValidate(sys *core.System, a *core.Analysis, topo *netsim.Topology,
	seeds int, duration time.Duration) (SimStats, error) {
	b := NewBounds(sys, a, topo)
	st := SimStats{MinMarginPct: math.NaN(), LossPredicted: b.LossPredicted}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		res, err := netsim.Run(topo, netsim.Config{Duration: duration, Seed: seed})
		if err != nil {
			return st, fmt.Errorf("seed %d: %w", seed, err)
		}
		st.SimRuns++
		c := b.Check(res)
		st.Frames += c.Frames
		st.Violations += c.Violations
		for i, pc := range c.Paths {
			pb := b.Paths[i]
			if pc.Completed == 0 || !pb.Bounded {
				continue
			}
			margin := 100 * float64(pb.Bound-pc.MaxLatency) / float64(pb.Bound)
			if math.IsNaN(st.MinMarginPct) || margin < st.MinMarginPct {
				st.MinMarginPct = margin
			}
		}
		for _, gc := range c.Gateways {
			st.Losses += gc.Lost()
		}
	}
	return st, nil
}
