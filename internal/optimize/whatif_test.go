package optimize

import (
	"reflect"
	"testing"

	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/rta"
)

// cloneEvaluator is the reference evaluator: every candidate is scored
// from a full clone of the matrix with the assignment applied and the
// jitters scaled, put through a from-scratch analysis.
func cloneEvaluator(k *kmatrix.KMatrix, cfg Config) *evaluator {
	analysis := cfg.Analysis
	analysis.Bus = k.Bus()
	return &evaluator{
		k: k, scales: cfg.EvalScales, robustScale: cfg.RobustnessScale,
		analyze: func(_ int, a Assignment, scale float64) (*rta.Report, error) {
			scaled := Apply(k, a).WithJitterScale(scale, cfg.OnlyUnknown)
			return rta.Analyze(scaled.ToRTA(), analysis)
		},
	}
}

// TestRunWhatIfEquivalence pins the satellite contract: the GA with
// incremental what-if sessions reproduces the clone-based run bit for
// bit (same seeded trajectory, same front, same best candidate).
func TestRunWhatIfEquivalence(t *testing.T) {
	k := kmatrix.Powertrain(kmatrix.GenConfig{Seed: 5, Messages: 16})
	base := Config{
		Seed:        42,
		Population:  12,
		Archive:     6,
		Generations: 6,
		EvalScales:  []float64{0, 0.25},
		Analysis:    rta.Config{Stuffing: can.StuffingWorstCase},
		Workers:     2,
	}
	fast, err := Run(k, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base.withDefaults()
	want, err := search(k, cfg, cloneEvaluator(k, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatal("whatif-backed GA run differs from clone-based run")
	}
}

// TestAudsleyCachedEquivalence: the shared store must not change the
// assignment Audsley derives.
func TestAudsleyCachedEquivalence(t *testing.T) {
	k := kmatrix.Powertrain(kmatrix.GenConfig{Seed: 5, Messages: 14})
	cfg := rta.Config{Stuffing: can.StuffingWorstCase}
	a1, f1, err := Audsley(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A second run (fresh cache) must reproduce the first; and applying
	// the assignment must keep the matrix schedulable iff feasible.
	a2, f2, err := Audsley(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 || !reflect.DeepEqual(a1, a2) {
		t.Fatal("Audsley is not reproducible")
	}
	if f1 {
		cfg.Bus = k.Bus()
		rep, err := rta.Analyze(Apply(k, a1).ToRTA(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllSchedulable() {
			t.Fatal("feasible Audsley assignment does not verify")
		}
	}
}
