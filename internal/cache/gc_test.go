package cache

import (
	"os"
	"reflect"
	"sync"
	"testing"
)

// TestDiskGCAccountingRace is the regression test for the GC
// accounting fix: the GC used to write its walk snapshot back into the
// shared bytes/entries counters absolutely, erasing whatever
// concurrent Puts and corrupt-record drops had added or subtracted
// between the walk and the write-back. The counters then drifted from
// the directory's true contents, so later GCs fired too early or never.
// Here GC runs interleaved with Puts of fresh keys and with reads of
// the oldest records (the ones GC is unlinking); after quiescence the
// in-memory accounting must match a byte-exact rescan of the directory.
func TestDiskGCAccountingRace(t *testing.T) {
	rep := sampleRTAReport(nil)
	payload, _ := Encode(rep)
	recLen := int64(len(encodeRecord(payload)))
	d := newTestDisk(t, 6*recLen)

	const (
		writers = 4
		keys    = 48
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	// Readers hammer the oldest shard of keys — exactly the records a
	// concurrent GC unlinks first — and must only ever see the correct
	// value or a miss.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 8; i++ {
				if v, ok := d.Get(digestOf(uint64(i))); ok {
					if !reflect.DeepEqual(v, rep) {
						t.Error("read of a GC'd shard returned a wrong value")
						return
					}
				}
			}
		}
	}()
	// Writers keep pushing records while GCs run on every overflow, so
	// the old absolute write-back would constantly lose their deltas.
	writersWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writersWG.Done()
			for round := 0; round < 6; round++ {
				for i := 0; i < keys; i++ {
					d.Put(digestOf(uint64(w*10_000+round*1_000+i)), rep)
				}
				d.gc()
			}
		}(w)
	}
	// One corrupt record mid-flight exercises the quarantine path's
	// accounting (drop() subtracts exactly once) under the same race.
	quarantined := digestOf(999_999)
	// A concurrent GC may already have deleted it again, so its path is
	// computed rather than asserted to exist.
	d.Put(quarantined, rep)
	path := d.path(quarantined)
	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		raw[len(raw)-1] ^= 0xFF
		os.WriteFile(path, raw, 0o644)
	}
	d.Get(quarantined) // quarantines (unless GC removed it first)

	// Quiesce: writers first (GCs keep racing the reader until the
	// end), then release the reader.
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	d.gc()

	// The ground truth: reopen the directory and rescan.
	fresh, err := NewDisk(d.Dir(), 6*recLen)
	if err != nil {
		t.Fatal(err)
	}
	got, want := d.Stats(), fresh.Stats()
	if got.Bytes != want.Bytes || got.Entries != want.Entries {
		t.Fatalf("accounting drifted from the directory: live %d B / %d entries, rescan %d B / %d entries",
			got.Bytes, got.Entries, want.Bytes, want.Entries)
	}
	if got.Bytes > got.MaxBytes {
		t.Fatalf("store left over budget after final GC: %+v", got)
	}
}
