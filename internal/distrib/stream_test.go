package distrib

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// TestDistribStreamedMatchesLocal is the tentpole identity: a streamed
// (spec-only) distributed run — the coordinator never materializes the
// corpus — folds the byte-identical report of a local materialized
// run, across pipeline depths, with compressed rows on the wire.
func TestDistribStreamedMatchesLocal(t *testing.T) {
	spec := scenario.Spec{Seed: 11, Count: 12}
	cfg := testConfig()
	corpus, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls := startWorkers(t, 3, WorkerConfig{Workers: 1})

	for _, depth := range []int{1, 2, 4} {
		job, err := campaign.NewSpecJob(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wireBytes atomic.Int64
		got, stats, err := RunStats(context.Background(), job, Options{
			Workers: urls, ShardSize: 2, PipelineDepth: depth,
			OnEvent: func(e Event) {
				if e.Type == EventShardDone {
					wireBytes.Add(e.Bytes)
				}
			},
		})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if canonical(t, got) != canonical(t, want) {
			t.Fatalf("depth %d: streamed distributed report differs from local run", depth)
		}
		if got.Fingerprint != corpus.Fingerprint().String() {
			t.Fatalf("depth %d: folded fingerprint %s != corpus %s",
				depth, got.Fingerprint, corpus.Fingerprint())
		}
		if stats.Shards != 6 || stats.BytesOnWire == 0 {
			t.Fatalf("depth %d: stats %+v, want 6 shards and nonzero wire bytes", depth, stats)
		}
		if wireBytes.Load() != stats.BytesOnWire {
			t.Fatalf("depth %d: event bytes %d != stats bytes %d",
				depth, wireBytes.Load(), stats.BytesOnWire)
		}
	}
}

// TestDistribStreamedSurvivesWorkerKill: kill-a-worker under the
// streamed protocol with pipelining on; the report is still
// byte-identical.
func TestDistribStreamedSurvivesWorkerKill(t *testing.T) {
	spec := scenario.Spec{Seed: 11, Count: 12}
	cfg := testConfig()
	corpus, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}

	victim := newKillableWorker(WorkerConfig{Workers: 1})
	srvVictim := httptest.NewServer(victim)
	defer srvVictim.Close()
	srvSurvivor := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	defer srvSurvivor.Close()

	job, err := campaign.NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), job, Options{
		Workers:   []string{srvVictim.URL, srvSurvivor.URL},
		ShardSize: 2, PipelineDepth: 3, DropAfter: 1,
		OnEvent: func(e Event) {
			if e.Type == EventShardDone && e.Worker == srvVictim.URL {
				victim.killed.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("streamed report after worker kill differs from local run")
	}
}

// TestDistribLegacyWorkerRefused: a pre-v2 worker binary refuses the
// streamed request with its own expected version. The coordinator has
// no downgrade path, so the attempt counts as an ordinary failure, the
// run fails loudly with the worker's skew message, and the job keeps
// nothing from it — a local resume still folds the identical report.
func TestDistribLegacyWorkerRefused(t *testing.T) {
	corpus := testCorpus(t)
	cfg := testConfig()
	want, err := campaign.Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		http.Error(rw, fmt.Sprintf("shard wire version %d, want 1", req.Version), http.StatusBadRequest)
	}))
	defer old.Close()

	job, err := campaign.NewJob(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), job, Options{
		Workers: []string{old.URL}, ShardSize: 12, MaxAttempts: 2, DropAfter: 10,
	})
	if err == nil || !strings.Contains(err.Error(), "want 1") {
		t.Fatalf("expected the worker's skew refusal, got %v", err)
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("%d requests reached the v1 worker, want MaxAttempts=2 for the one shard (no downgrade retry)", n)
	}
	if done, _ := job.Progress(); done != 0 {
		t.Fatalf("refused shards installed %d rows", done)
	}
	got, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("local resume after refused distributed run differs")
	}
}

// TestDistribRowCompression: shard responses travel gzip-compressed
// when asked (and measurably smaller than the identity encoding), and
// uncompressed for requesters that do not advertise gzip — the
// old-coordinator compatibility path.
func TestDistribRowCompression(t *testing.T) {
	spec := scenario.Spec{Seed: 11, Count: 12}
	cfg := testConfig()
	w := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	defer w.Close()

	ref, err := campaign.NewSpecRef(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ShardRequest{
		Version: WireVersion, Corpus: ref, Start: 0, Count: 12,
		Config: NewShardConfig(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}

	post := func(encoding string) (int, ShardResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, w.URL+ShardPath, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		// Setting the header explicitly disables the transport's
		// transparent decompression, so we see the true wire form.
		req.Header.Set("Accept-Encoding", encoding)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept-Encoding %q: %s: %s", encoding, resp.Status, raw)
		}
		var payload io.Reader = strings.NewReader(string(raw))
		if resp.Header.Get("Content-Encoding") == "gzip" {
			if encoding != "gzip" {
				t.Fatalf("gzip response to Accept-Encoding %q", encoding)
			}
			payload = mustGunzip(t, raw)
		} else if encoding == "gzip" {
			t.Fatal("identity response to a gzip-accepting request")
		}
		var sr ShardResponse
		if err := json.NewDecoder(payload).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return len(raw), sr
	}

	plainLen, plain := post("identity")
	gzLen, gz := post("gzip")
	if gzLen >= plainLen {
		t.Fatalf("compressed response (%d B) not smaller than identity (%d B)", gzLen, plainLen)
	}
	if len(plain.Rows) != 12 || len(gz.Rows) != 12 {
		t.Fatalf("row counts %d/%d, want 12", len(plain.Rows), len(gz.Rows))
	}
	if plain.Partial != gz.Partial || plain.Partial == "" {
		t.Fatalf("partials differ across encodings: %q vs %q", plain.Partial, gz.Partial)
	}
}

// mustGunzip decompresses raw or fails the test.
func mustGunzip(t *testing.T, raw []byte) io.Reader {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return gz
}
