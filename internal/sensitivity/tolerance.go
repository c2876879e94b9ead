package sensitivity

import (
	"fmt"
	"sort"

	"repro/internal/kmatrix"
	"repro/internal/parallel"
	"repro/internal/whatif"
)

// MessageJitterTolerance searches the largest jitter — as a fraction of
// the message's own period, in [0, hi] — that the named message may
// exhibit while every message on the bus still meets its deadline. All
// other messages sit at the operating scale. This is the per-message
// sensitivity figure of Racu et al. that the paper turns into supplier
// requirements: "jitter constraints for the most critical (or sensitive)
// messages can be formulated as requirements for ECU suppliers".
//
// Schedulability is monotone in the jitter, so bisection applies. A
// negative result means the bus is already unschedulable at the
// operating point with zero jitter on the message.
func MessageJitterTolerance(k *kmatrix.KMatrix, message string, cfg SweepConfig,
	operatingScale, hi, eps float64) (float64, error) {

	target := k.ByName(message)
	if target == nil {
		return 0, fmt.Errorf("sensitivity: unknown message %q", message)
	}
	// The bisection probes a single-message jitter edit over and over:
	// the incremental session re-analyses only the edited message and
	// the priorities below it, and shares the untouched prefix across
	// probes (and, with cfg.Cache, across table rows).
	sess := whatif.NewBusSession(k, cfg.Analysis, whatif.Options{Store: cfg.Cache, Workers: 1})
	period := target.Period
	return bisectScale(func(scale float64) (bool, error) {
		sess.Reset()
		if err := sess.Apply(
			whatif.ScaleJitter{Scale: operatingScale, OnlyUnknown: cfg.OnlyUnknown},
			whatif.SetJitter{Message: message, Jitter: scaleDuration(scale, period)},
		); err != nil {
			return false, err
		}
		rep, err := sess.Analyze()
		if err != nil {
			return false, err
		}
		return rep.AllSchedulable(), nil
	}, hi, eps)
}

// bisectScale finds the largest scale in [0, hi] (to within eps) at
// which the monotone predicate okAt holds; -1 when it fails already at
// zero.
func bisectScale(okAt func(scale float64) (bool, error), hi, eps float64) (float64, error) {
	ok0, err := okAt(0)
	if err != nil {
		return 0, err
	}
	if !ok0 {
		return -1, nil
	}
	okHi, err := okAt(hi)
	if err != nil {
		return 0, err
	}
	if okHi {
		return hi, nil
	}
	lo := 0.0
	for hi-lo > eps {
		mid := (lo + hi) / 2
		ok, err := okAt(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Tolerance is one row of a tolerance table.
type Tolerance struct {
	// Message names the message.
	Message string
	// MaxJitterScale is the tolerated jitter as a fraction of the
	// message's period (negative: infeasible at the operating point).
	MaxJitterScale float64
}

// ToleranceTable computes the jitter tolerance of every message at the
// operating scale, sorted from most critical (lowest tolerance) to most
// relaxed. The per-message bisections are independent and run on a
// worker pool (cfg.Workers); all rows share one content-addressed
// store, so the common operating-point prefix is analysed once for the
// whole table.
func ToleranceTable(k *kmatrix.KMatrix, cfg SweepConfig, operatingScale, hi, eps float64) ([]Tolerance, error) {
	if cfg.Cache == nil {
		cfg.Cache = whatif.NewStore(0)
	}
	out := make([]Tolerance, len(k.Messages))
	errs := make([]error, len(k.Messages))
	parallel.For(len(k.Messages), cfg.Workers, func(_, i int) {
		tol, err := MessageJitterTolerance(k, k.Messages[i].Name, cfg, operatingScale, hi, eps)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = Tolerance{Message: k.Messages[i].Name, MaxJitterScale: tol}
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	sortTolerances(out)
	return out, nil
}

// sortTolerances orders rows from most critical (lowest tolerance) to
// most relaxed, ties by name.
func sortTolerances(out []Tolerance) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MaxJitterScale != out[j].MaxJitterScale {
			return out[i].MaxJitterScale < out[j].MaxJitterScale
		}
		return out[i].Message < out[j].Message
	})
}
