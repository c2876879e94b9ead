package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// FuzzShardRequest posts arbitrary bodies to a worker. The worker must
// never panic, and it may answer 2xx only to a valid v2 request: one
// JSON ShardRequest of WireVersion whose range the referenced spec can
// generate — and then with exactly that range's rows and partial.
// Valid requests that ask for more than a token amount of analysis are
// skipped, so the fuzzer explores the wire rather than the generator.
func FuzzShardRequest(f *testing.F) {
	ref, err := campaign.NewSpecRef(scenario.Spec{Seed: 3, Count: 4})
	if err != nil {
		f.Fatal(err)
	}
	cfg := ShardConfig{Seeds: 1, DurationNS: int64(10 * time.Millisecond)}
	for _, req := range []ShardRequest{
		{Version: WireVersion, Corpus: ref, Start: 1, Count: 1, Config: cfg},
		{Version: 1, Corpus: ref, Start: 0, Count: 1, Config: cfg},
		{Version: WireVersion, Corpus: ref, Start: 3, Count: 2, Config: cfg},
		// Same spec and range as the first seed, under a reference
		// version that does not resolve: the worker's slice cache must
		// not answer it.
		{Version: WireVersion, Corpus: campaign.CorpusRef{Spec: ref.Spec}, Start: 1, Count: 1, Config: cfg},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":2,"start":0,"count":1,"corpus":{"version":1,"spec":"count = 1\n"},"config":{"seeds":-1,"duration_ns":1000000}}trailing`))

	h := NewWorker(WorkerConfig{Workers: 1}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, valid := validShardRequest(body)
		if valid && !cheap(req) {
			t.Skip("valid request beyond the fuzz work budget")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code > 299 {
			return
		}
		if !valid {
			t.Fatalf("status %d for an invalid request %q", rec.Code, body)
		}
		var resp ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable %d response: %v", rec.Code, err)
		}
		_, want, _ := req.Corpus.ResolveRange(req.Start, req.Count)
		if resp.Version != WireVersion || len(resp.Rows) != req.Count || resp.Partial != want.String() {
			t.Fatalf("response v%d with %d rows and partial %q for %+v",
				resp.Version, len(resp.Rows), resp.Partial, req)
		}
		for i := range resp.Rows {
			row, err := resp.Rows[i].Result()
			if err != nil || row.Index != req.Start+i {
				t.Fatalf("row %d: index %d, %v", i, row.Index, err)
			}
		}
	})
}

// validShardRequest decodes body as exactly one v2 ShardRequest whose
// range resolves.
func validShardRequest(body []byte) (ShardRequest, bool) {
	var req ShardRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if dec.Decode(&req) != nil || !errors.Is(dec.Decode(&struct{}{}), io.EOF) {
		return req, false
	}
	if req.Version != WireVersion {
		return req, false
	}
	_, _, err := req.Corpus.ResolveRange(req.Start, req.Count)
	return req, err == nil
}

// cheap reports whether a valid request stays within the fuzz work
// budget: at most two scenarios of a default-shaped spec, at most one
// short simulation each.
func cheap(req ShardRequest) bool {
	spec, err := scenario.ParseSpec(strings.NewReader(req.Corpus.Spec))
	if err != nil {
		return false
	}
	var got, want bytes.Buffer
	spec.WithDefaults().Encode(&got)
	scenario.Spec{Seed: spec.Seed, Count: spec.Count}.WithDefaults().Encode(&want)
	c := req.Config
	return got.String() == want.String() && req.Count <= 2 &&
		(c.Seeds == 1 || c.Seeds < 0) && c.DurationNS > 0 && c.DurationNS <= int64(20*time.Millisecond)
}
