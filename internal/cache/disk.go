package cache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/contenthash"
)

// DefaultDiskBytes bounds a Disk store constructed with no explicit
// byte budget.
const DefaultDiskBytes int64 = 256 << 20

// Record header layout (little-endian): magic, format version, payload
// crc, payload length, then the codec payload. Anything that does not
// parse — wrong magic, skewed version, short file, crc mismatch,
// undecodable payload — is dropped and read as a miss.
const (
	diskMagic     uint32 = 0x324C5953 // "SYL2"
	diskHeaderLen        = 4 + 2 + 2 + 4 + 4
	recordSuffix         = ".rec"
	tmpPrefix            = "put-"
)

// Disk is the shared on-disk level of the hierarchy: one crc-checked
// versioned record per digest, fanned out over 256 two-hex-digit
// subdirectories so a fleet-sized store never piles millions of files
// into one directory. Writes go through a temp file and an atomic
// rename, so concurrent readers (including other processes sharing the
// directory) see either the whole record or none of it; a size-bounded
// GC deletes oldest-first once the byte budget is exceeded. Every
// degraded path — truncation, corruption, version skew, a record GC'd
// mid-read — degrades to a miss, never a wrong hit or a crash.
//
// Disk is safe for concurrent use and implements Store and Leveled
// (the disk is its own primary level when used standalone).
type Disk struct {
	dir      string
	maxBytes int64

	mu        sync.Mutex
	bytes     int64
	entries   int
	hits      uint64
	misses    uint64
	evictions uint64
	corrupt   uint64
	skipped   uint64

	gcMu sync.Mutex
}

// NewDisk opens (or creates) an on-disk store rooted at dir, holding
// at most maxBytes of records (<= 0 selects DefaultDiskBytes). An
// existing directory is inventoried so restarts resume with the
// already-persisted population.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk store: %w", err)
	}
	d := &Disk{dir: dir, maxBytes: maxBytes}
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(de.Name(), recordSuffix) {
			return nil
		}
		if info, ierr := de.Info(); ierr == nil {
			d.bytes += info.Size()
			d.entries++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cache: disk store: %w", err)
	}
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// path fans records out by the first two hex digits of the digest.
func (d *Disk) path(key contenthash.Digest) string {
	hex := key.String()
	return filepath.Join(d.dir, hex[:2], hex+recordSuffix)
}

// Get reads, validates and decodes the record stored under key. A
// missing file is a plain miss; an invalid one is dropped and counted
// in Corrupt.
func (d *Disk) Get(key contenthash.Digest) (any, bool) {
	path := d.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		d.mu.Lock()
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	v, err := decodeRecord(raw)
	if err != nil {
		d.drop(path, int64(len(raw)))
		return nil, false
	}
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	return v, true
}

// drop removes an unreadable record and counts it as a corrupt miss.
func (d *Disk) drop(path string, size int64) {
	removed := os.Remove(path) == nil
	d.mu.Lock()
	d.misses++
	d.corrupt++
	if removed {
		d.bytes -= size
		d.entries--
	}
	d.mu.Unlock()
}

// decodeRecord validates a record's framing (magic, version, length,
// crc) and decodes the codec payload.
func decodeRecord(raw []byte) (any, error) {
	if len(raw) < diskHeaderLen {
		return nil, fmt.Errorf("cache: record truncated at %d bytes", len(raw))
	}
	if m := binary.LittleEndian.Uint32(raw[0:4]); m != diskMagic {
		return nil, fmt.Errorf("cache: bad record magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != CodecVersion {
		return nil, fmt.Errorf("cache: record version %d, want %d", v, CodecVersion)
	}
	crc := binary.LittleEndian.Uint32(raw[8:12])
	plen := binary.LittleEndian.Uint32(raw[12:16])
	payload := raw[diskHeaderLen:]
	if uint32(len(payload)) != plen {
		return nil, fmt.Errorf("cache: record payload %d bytes, header says %d", len(payload), plen)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("cache: record crc %#x, want %#x", got, crc)
	}
	return Decode(payload)
}

// encodeRecord frames a codec payload with the header and crc.
func encodeRecord(payload []byte) []byte {
	rec := make([]byte, diskHeaderLen, diskHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], diskMagic)
	binary.LittleEndian.PutUint16(rec[4:6], CodecVersion)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(payload)))
	return append(rec, payload...)
}

// Put persists a value under key. Encoding is skipped for values the
// wire format does not carry; an existing record is left alone (equal
// digests imply equal converged values). Exceeding the byte budget
// triggers an oldest-first GC.
func (d *Disk) Put(key contenthash.Digest, value any) {
	path := d.path(key)
	if _, err := os.Stat(path); err == nil {
		return
	}
	payload, ok := Encode(value)
	if !ok {
		d.mu.Lock()
		d.skipped++
		d.mu.Unlock()
		return
	}
	d.writeRecord(path, encodeRecord(payload))
}

// writeRecord installs record bytes at path through a temp file and an
// atomic rename, then runs GC if the budget is exceeded.
func (d *Disk) writeRecord(path string, rec []byte) {
	shard := filepath.Dir(path)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(shard, tmpPrefix+"*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(rec)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
		return
	}
	var over bool
	d.mu.Lock()
	d.bytes += int64(len(rec))
	d.entries++
	over = d.bytes > d.maxBytes
	d.mu.Unlock()
	if over {
		d.gc()
	}
}

// gc deletes records oldest-first until the store is comfortably under
// budget (7/8 of it, so a hot Put stream does not GC per record).
// Concurrent Gets race benignly: a reader either opened the file
// before the unlink or takes a miss.
func (d *Disk) gc() {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	target := d.maxBytes - d.maxBytes/8
	d.mu.Lock()
	over := d.bytes > d.maxBytes
	d.mu.Unlock()
	if !over {
		return
	}
	type rec struct {
		path  string
		size  int64
		mtime int64
	}
	var recs []rec
	filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(de.Name(), recordSuffix) {
			return nil
		}
		if info, ierr := de.Info(); ierr == nil {
			recs = append(recs, rec{path: path, size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
		return nil
	})
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].mtime != recs[j].mtime {
			return recs[i].mtime < recs[j].mtime
		}
		return recs[i].path < recs[j].path
	})
	// The walk snapshot decides how much to delete; the shared counters
	// are adjusted by delta only. Writing the snapshot back absolutely
	// (as this GC originally did) races with concurrent Puts and
	// corrupt-record drops between the walk and the write-back: their
	// increments and decrements were silently erased, so the resident
	// total drifted and a later GC triggered too early or never.
	var total int64
	for _, r := range recs {
		total += r.size
	}
	removedBytes, removed := int64(0), 0
	for _, r := range recs {
		if total-removedBytes <= target {
			break
		}
		// A reader racing on an in-GC record is benign: it either opened
		// the file before this unlink or takes a plain miss. Only a
		// successful remove is accounted, so a record concurrently
		// quarantined by drop() is never double-subtracted.
		if os.Remove(r.path) == nil {
			removedBytes += r.size
			removed++
		}
	}
	d.mu.Lock()
	d.bytes -= removedBytes
	d.entries -= removed
	d.evictions += uint64(removed)
	d.mu.Unlock()
}

// GetLeveled implements Leveled; a standalone Disk is its own primary
// level.
func (d *Disk) GetLeveled(key contenthash.Digest) (any, bool, bool) {
	v, ok := d.Get(key)
	return v, true, ok
}

// GetPrimary implements Leveled.
func (d *Disk) GetPrimary(key contenthash.Digest) (any, bool) { return d.Get(key) }

// PutPrimary implements Leveled.
func (d *Disk) PutPrimary(key contenthash.Digest, value any) { d.Put(key, value) }

// Stats returns a snapshot of the store counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Hits: d.hits, Misses: d.misses, Evictions: d.evictions,
		Entries: d.entries, Bytes: d.bytes, MaxBytes: d.maxBytes,
		Corrupt: d.corrupt, Skipped: d.skipped,
	}
}
