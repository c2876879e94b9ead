package main

import (
	"flag"
	"strings"

	"repro/internal/cache"
)

// The flag helpers below register the flags shared by many
// subcommands, so name, default and help text stay uniform across the
// CLI (and docs/cli.md documents them once).

// kmatrixFlag registers the uniform -kmatrix flag.
func kmatrixFlag(fs *flag.FlagSet) *string {
	return fs.String("kmatrix", "", "K-Matrix CSV (default: built-in case study)")
}

// scenarioFlag registers the uniform -scenario flag (see
// scenarioConfig for the mapping).
func scenarioFlag(fs *flag.FlagSet) *string {
	return fs.String("scenario", "worst", "best or worst")
}

// workersFlag registers the uniform -workers flag of the parallel
// drivers.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
}

// sharedCache opens the process's shared second-level store from the
// -cache-dir/-cache-bytes flags: a nil disk (memory only) when
// cacheDir is empty.
func sharedCache(cacheDir string, cacheBytes int64) (*cache.Disk, error) {
	if cacheDir == "" {
		return nil, nil
	}
	return cache.NewDisk(cacheDir, cacheBytes)
}

// splitAddrs parses a comma-separated -workers-addr value into the
// list of worker base URLs, dropping empty segments.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
