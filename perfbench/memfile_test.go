package main

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"repro/gemstone"
)

func TestMemDeviceAcrossChunks(t *testing.T) {
	fs := newMemFS()
	f, err := fs.OpenReplica("db/replica0.gs", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("gemstone"), chunkSize/4) // two chunks' worth
	off := int64(chunkSize - 5)
	if n, err := f.WriteAt(data, off); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A second open sees the bytes the first one wrote.
	g, _ := fs.OpenReplica("db/replica0.gs", 0)
	got := make([]byte, len(data))
	if n, err := g.ReadAt(got, off); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt = %d, %v, equal %v", n, err, bytes.Equal(got, data))
	}
	if st, _ := g.Stat(); st.Size() != off+int64(len(data)) || fs.Bytes() != st.Size() {
		t.Fatalf("size %d, fs %d, want %d", st.Size(), fs.Bytes(), off+int64(len(data)))
	}
	if n, err := g.ReadAt(make([]byte, 10), off+int64(len(data))-4); n != 4 || err != io.EOF {
		t.Fatalf("read past the end = %d, %v", n, err)
	}
	if err := g.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if err := g.Truncate(20); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 10)
	if _, err := g.ReadAt(tail, 10); err != nil || !bytes.Equal(tail, make([]byte, 10)) {
		t.Fatalf("re-extended tail = %v, %v, want zeros", tail, err)
	}
}

func TestCountingWrapperCountsSyncs(t *testing.T) {
	var c ioCounts
	f, err := countingOpen(newMemFS().OpenReplica, &c)("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 28), 100); err != nil {
		t.Fatal(err)
	}
	if s := c.sample(); s.syncs != 3 || s.writes != 2 || s.bytes != 128 {
		t.Fatalf("counted %+v, want 3 syncs, 2 writes, 128 bytes", s)
	}
}

// The wrapper and the store's own counters agree on a real database, and
// each commit costs the store's two syncs: data, then superblock.
func TestCountingWrapperMatchesStoreCounters(t *testing.T) {
	var c ioCounts
	fs := newMemFS()
	db, err := openDB(fs, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	se, err := db.Login(gemstone.SystemUser, password)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	before := c.sample()
	const commits = 5
	for i := 0; i < commits; i++ {
		if _, err := se.Run("World at: #n put: " + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := se.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	after := c.sample()
	if got := after.syncs - before.syncs; got != 2*commits {
		t.Errorf("%d commits made %d syncs, want %d", commits, got, 2*commits)
	}
	snap := db.Stats()
	if uint64(after.syncs) != snap.Counter("store.syncs") {
		t.Errorf("wrapper syncs %d, store.syncs %d", after.syncs, snap.Counter("store.syncs"))
	}
	if uint64(after.bytes) != snap.Counter("store.track.bytes.written") {
		t.Errorf("wrapper bytes %d, store.track.bytes.written %d", after.bytes, snap.Counter("store.track.bytes.written"))
	}
	if uint64(after.writes) != snap.Counter("store.track.writes") {
		t.Errorf("wrapper writes %d, store.track.writes %d", after.writes, snap.Counter("store.track.writes"))
	}
}
