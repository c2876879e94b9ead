package sensitivity

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/parallel"
	"repro/internal/rta"
	"repro/internal/whatif"
)

// The incremental what-if path must be bit-identical to the clone-based
// reference below for every derived search: each variant is a fresh
// clone of the matrix put through a full from-scratch analysis.

// cloneAnalysis is the reference's analysis configuration.
func cloneAnalysis(k *kmatrix.KMatrix, cfg SweepConfig) rta.Config {
	analysis := cfg.Analysis
	analysis.Bus = k.Bus()
	return analysis
}

// cloneSweep is the reference Sweep: one independently scaled clone per
// scale, on the same worker pool.
func cloneSweep(k *kmatrix.KMatrix, cfg SweepConfig) (*Result, error) {
	scales := cfg.scales()
	reports := make([]*rta.Report, len(scales))
	errs := make([]error, len(scales))
	parallel.For(len(scales), cfg.Workers, func(_, si int) {
		scaled := k.WithJitterScale(scales[si], cfg.OnlyUnknown)
		reports[si], errs[si] = rta.Analyze(scaled.ToRTA(), cloneAnalysis(k, cfg))
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	return newResult(scales, reports)
}

// cloneToleranceTable is the reference ToleranceTable: every bisection
// probe scales a clone to the operating point and sets the message's
// jitter. Rows run on the same worker pool.
func cloneToleranceTable(k *kmatrix.KMatrix, cfg SweepConfig, operatingScale, hi, eps float64) ([]Tolerance, error) {
	out := make([]Tolerance, len(k.Messages))
	errs := make([]error, len(k.Messages))
	parallel.For(len(k.Messages), cfg.Workers, func(_, i int) {
		name := k.Messages[i].Name
		out[i].Message = name
		out[i].MaxJitterScale, errs[i] = bisectScale(func(scale float64) (bool, error) {
			trial := k.WithJitterScale(operatingScale, cfg.OnlyUnknown)
			m := trial.ByName(name)
			m.Jitter = scaleDuration(scale, m.Period)
			rep, err := rta.Analyze(trial.ToRTA(), cloneAnalysis(k, cfg))
			if err != nil {
				return false, err
			}
			return rep.AllSchedulable(), nil
		}, hi, eps)
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	sortTolerances(out)
	return out, nil
}

// cloneExtensibility is the reference Extensibility: every probe appends
// n template clones, above every existing identifier, to a clone scaled
// to the operating point.
func cloneExtensibility(k *kmatrix.KMatrix, template kmatrix.Message, cfg SweepConfig,
	operatingScale float64, max int) (int, error) {
	var base can.ID
	for _, m := range k.Messages {
		if m.ID > base {
			base = m.ID
		}
	}
	return bisectCount(func(n int) (bool, error) {
		trial := k.WithJitterScale(operatingScale, cfg.OnlyUnknown)
		for i := 0; i < n; i++ {
			add := template
			add.Name = fmt.Sprintf("%s_ext%03d", template.Name, i+1)
			add.ID = base + 1 + can.ID(i)
			add.Jitter = scaleDuration(operatingScale, add.Period)
			trial.Messages = append(trial.Messages, add)
		}
		rep, err := rta.Analyze(trial.ToRTA(), cloneAnalysis(k, cfg))
		if err != nil {
			return false, err
		}
		return rep.AllSchedulable(), nil
	}, max)
}

func equivMatrix() *kmatrix.KMatrix {
	return kmatrix.Powertrain(kmatrix.GenConfig{Seed: 3, Messages: 26})
}

func equivConfig(workers int) SweepConfig {
	return SweepConfig{
		Analysis: rta.Config{Stuffing: can.StuffingWorstCase, DeadlineModel: rta.DeadlineImplicit},
		Workers:  workers,
	}
}

func TestSweepWhatIfEquivalence(t *testing.T) {
	k := equivMatrix()
	for _, workers := range []int{1, 4} {
		cfg := equivConfig(workers)
		fast, err := Sweep(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := cloneSweep(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("workers=%d: whatif sweep differs from clone-based sweep", workers)
		}
	}
}

func TestToleranceWhatIfEquivalence(t *testing.T) {
	k := equivMatrix()
	cfg := equivConfig(2)
	fast, err := ToleranceTable(k, cfg, 0.1, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := cloneToleranceTable(k, equivConfig(2), 0.1, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatal("whatif tolerance table differs from clone-based table")
	}
}

func TestExtensibilityWhatIfEquivalence(t *testing.T) {
	k := equivMatrix()
	template := kmatrix.Message{
		Name: "Ext", DLC: 8, Period: 20 * ms, Sender: "ECU1",
	}
	fast, err := Extensibility(k, template, equivConfig(1), 0.1, 64)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := cloneExtensibility(k, template, equivConfig(1), 0.1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Fatalf("whatif extensibility %d != clone-based %d", fast, slow)
	}
}

// TestToleranceSharedCacheAcrossRows checks that the table actually
// shares work across rows when given one store.
func TestToleranceSharedCacheAcrossRows(t *testing.T) {
	k := equivMatrix()
	cfg := equivConfig(1)
	cfg.Cache = whatif.NewStore(0)
	if _, err := ToleranceTable(k, cfg, 0.1, 1.0, 0.1); err != nil {
		t.Fatal(err)
	}
	st := cfg.Cache.Stats()
	// Every row probes single-message edits of the same operating point;
	// the untouched high-priority prefixes must be served from the
	// shared store many times over.
	if st.Hits < uint64(len(k.Messages)) {
		t.Fatalf("tolerance table shared almost nothing: %d hits vs %d misses", st.Hits, st.Misses)
	}
}
