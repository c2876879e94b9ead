package campaign

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/scenario"
	"repro/internal/whatif"
)

// TestRunScenariosFoldsIdentical rebuilds a campaign from shards: the
// corpus travels as a CorpusRef, each shard's slice is drawn by
// ResolveRange and computed by RunScenarios (through the WireRow
// transport encoding, as the distributed protocol ships it), shards are
// installed out of dispatch order with their partial fingerprints, and
// the folded report must be byte-identical to a plain local Run.
func TestRunScenariosFoldsIdentical(t *testing.T) {
	corpus := jobCorpus(t)
	cfg := Config{Workers: 2, Seeds: 1, Duration: 50e6}
	want, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewCorpusRef(corpus)
	if err != nil {
		t.Fatal(err)
	}
	shard := func(start, count int) ([]ScenarioResult, scenario.Partial) {
		t.Helper()
		scs, partial, err := ref.ResolveRange(start, count)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := RunScenarios(context.Background(), scs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows, partial
	}

	j, err := NewJob(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ranges := j.PendingRanges(5)
	total := 0
	for _, r := range ranges {
		total += r.Count
	}
	if total != j.Total() || len(ranges) != 3 {
		t.Fatalf("pending ranges %v do not cover a fresh job of %d", ranges, j.Total())
	}
	// Install shards in reverse dispatch order, round-tripped through
	// the wire encoding.
	for i := len(ranges) - 1; i >= 0; i-- {
		r := ranges[i]
		rows, partial := shard(r.Start, r.Count)
		wired := make([]ScenarioResult, len(rows))
		for k := range rows {
			w := NewWireRow(&rows[k])
			if wired[k], err = w.Result(); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.InstallShard(wired, partial); err != nil {
			t.Fatal(err)
		}
	}
	if rs := j.PendingRanges(5); len(rs) != 0 {
		t.Fatalf("ranges still pending after all shards installed: %v", rs)
	}
	got, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("shard-folded report differs from local run")
	}

	// Duplicate installs (a retried shard that completed twice) are
	// ignored, not double-counted.
	rows, partial := shard(ranges[0].Start, ranges[0].Count)
	if err := j.InstallShard(rows, partial); err != nil {
		t.Fatal(err)
	}
	if done, tot := j.Progress(); done != tot {
		t.Fatalf("duplicate install corrupted progress: %d/%d", done, tot)
	}
	again, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, again) != canonical(t, want) {
		t.Fatal("duplicate shard install changed the report")
	}
	if _, _, err := ref.ResolveRange(total-2, 5); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := RunScenarios(context.Background(), nil, cfg); err == nil {
		t.Fatal("empty shard accepted")
	}
}

// TestRunScenariosSharedCacheIdentical runs the shards over a shared disk
// level twice: rows — cache counters included — must be identical to
// the private-store run both cold and warm, and the warm pass must be
// served predominantly from the disk level.
func TestRunScenariosSharedCacheIdentical(t *testing.T) {
	corpus := jobCorpus(t)
	base := Config{Workers: 2, Seeds: 1, Duration: 50e6}
	want, err := Run(corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := base
	shared.Cache = disk
	for pass, name := range []string{"cold", "warm"} {
		rows, err := RunScenarios(context.Background(), corpus.Scenarios, shared)
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewJob(corpus, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.InstallRows(rows); err != nil {
			t.Fatal(err)
		}
		got, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if canonical(t, got) != canonical(t, want) {
			t.Fatalf("%s shared-cache report differs from private-store run", name)
		}
		if ds := disk.Stats(); pass == 1 && ds.Hits == 0 {
			t.Fatalf("warm pass never hit the shared disk level: %+v", ds)
		}
	}
}

// TestConfigCacheStaysLocal documents that the shared cache never
// travels through a checkpoint: a restored job has a nil Cache.
func TestConfigCacheStaysLocal(t *testing.T) {
	corpus := jobCorpus(t)
	cfg := Config{Workers: 1, Seeds: -1, Duration: 50e6, Cache: whatif.NewStore(0)}
	j, err := NewJob(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreJob(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Config().Cache != nil {
		t.Fatal("checkpoint transported the process-local cache")
	}
}
