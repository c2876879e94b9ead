package campaign

import (
	"encoding/binary"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
)

// TestCampaignDiskTierDamaged is the degraded-tier oracle for the kept
// two-level store: each scenario's private LRU tiered over one shared
// cache.Disk. A cold pass fills the disk; then a seeded subset of the
// persisted records is damaged — truncated, bit-flipped or
// version-bumped — and a warm pass reopens the directory as a rerun
// would. Both reports must be byte-identical to the memory-only run:
// every damaged record reads as a counted miss and is recomputed, and
// the intact ones still serve hits.
func TestCampaignDiskTierDamaged(t *testing.T) {
	corpus := jobCorpus(t)
	base := Config{Workers: 4, Seeds: 1, Duration: 50e6}
	want, err := Run(corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold, err := cache.NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Cache = cold
	rep, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, rep) != canonical(t, want) {
		t.Fatal("cold disk-tier report differs from the memory-only run")
	}

	damaged := damageRecords(t, dir, 29)
	if damaged == 0 {
		t.Fatal("no records were damaged")
	}

	warm, err := cache.NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = warm
	rep, err = Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, rep) != canonical(t, want) {
		t.Fatal("warm report over damaged records differs from the memory-only run")
	}
	st := warm.Stats()
	if st.Corrupt == 0 {
		t.Fatalf("%d damaged records, none counted corrupt: %+v", damaged, st)
	}
	if st.Hits == 0 {
		t.Fatalf("intact records never served the warm pass: %+v", st)
	}
}

// damageRecords rewrites roughly three in four of the records under
// dir, chosen and mangled by a seeded generator: a truncation, a
// single bit flip, or a bumped format version. It returns how many it
// damaged.
func damageRecords(t *testing.T, dir string, seed int64) int {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() && strings.HasSuffix(path, ".rec") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	rng := rand.New(rand.NewSource(seed))
	damaged := 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(4) {
		case 0:
			continue
		case 1:
			raw = raw[:rng.Intn(len(raw))]
		case 2:
			raw[rng.Intn(len(raw))] ^= 1 << rng.Intn(8)
		case 3:
			binary.LittleEndian.PutUint16(raw[4:6], binary.LittleEndian.Uint16(raw[4:6])+1)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	return damaged
}
