package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newDiskTestServer starts a service whose analysis store is the memo
// LRU tiered over a cache.Disk rooted at dir.
func newDiskTestServer(t *testing.T, dir string) string {
	t.Helper()
	srv := mustServer(t, Config{Workers: 1, CacheDir: dir})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return hs.URL
}

// TestPromMetricsDiskTier: with a disk level configured, /metrics
// reports both cache tiers, and nothing of a third one.
func TestPromMetricsDiskTier(t *testing.T) {
	base := newDiskTestServer(t, t.TempDir())
	if status, body := do(t, "POST", base+"/v1/analyze", testSpec(t, 5)); status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, body)
	}
	status, body := do(t, "GET", base+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d %s", status, body)
	}
	text := string(body)
	for _, want := range []string{
		`symtago_cache_hits_total{tier="l1"}`,
		`symtago_cache_hits_total{tier="l2"}`,
		`symtago_cache_corrupt_total{tier="l2"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, unwanted := range []string{`tier="remote"`, "symtago_remote_cache_"} {
		if strings.Contains(text, unwanted) {
			t.Errorf("/metrics carries %q", unwanted)
		}
	}
}

// TestDiskTierResponseByteIdentical: the same request against a
// disk-tier server and a plain one produces byte-identical response
// bodies — cold, warm, and from a fresh server reopening the warm
// directory. The disk level must be invisible in every payload.
func TestDiskTierResponseByteIdentical(t *testing.T) {
	_, plain := newTestServer(t)
	spec := testSpec(t, 11)
	_, want := do(t, "POST", plain+"/v1/analyze", spec)
	dir := t.TempDir()
	disk := newDiskTestServer(t, dir)
	for _, pass := range []struct{ name, base string }{
		{"cold", disk},
		{"warm", disk},
		{"reopened", newDiskTestServer(t, dir)},
	} {
		status, got := do(t, "POST", pass.base+"/v1/analyze", spec)
		if status != http.StatusOK {
			t.Fatalf("%s analyze: %d %s", pass.name, status, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%s disk-tier response differs from plain server", pass.name)
		}
	}
}

// TestTraceDiskSpans: a traced request through the two-level store
// records the aggregated cache.l1 and cache.l2 spans.
func TestTraceDiskSpans(t *testing.T) {
	base := newDiskTestServer(t, t.TempDir())
	const id = "ffeeddccbbaa99887766554433221100"
	status, body, _ := doTraced(t, "POST", base+"/v1/analyze", testSpec(t, 7), id)
	if status != http.StatusOK {
		t.Fatalf("traced analyze: %d %s", status, body)
	}
	status, tbody := do(t, "GET", base+"/v1/trace/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", status, tbody)
	}
	var export struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbody, &export); err != nil {
		t.Fatalf("trace body: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range export.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"cache.l1", "cache.l2"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}
