package main

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// chunkSize is the allocation unit of a memory device. Growing in fixed
// chunks never copies what is already written, so a device of a few
// hundred MiB costs its size and not twice its size at each doubling.
const chunkSize = 1 << 20

// memDevice is the content of one replica file, kept in process memory.
// It outlives the handles opened on it, so a database closed and opened
// again sees exactly the bytes the store wrote: the "files alone".
type memDevice struct {
	mu     sync.RWMutex
	chunks [][]byte
	size   int64
}

func (d *memDevice) readAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off >= d.size {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && off < d.size {
		c := d.chunks[off/chunkSize]
		in := off % chunkSize
		m := copy(p[n:], c[in:])
		if rest := d.size - off; int64(m) > rest {
			m = int(rest)
		}
		n += m
		off += int64(m)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *memDevice) writeAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("memdevice: negative offset")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	end := off + int64(len(p))
	for int64(len(d.chunks))*chunkSize < end {
		d.chunks = append(d.chunks, make([]byte, chunkSize))
	}
	n := 0
	for n < len(p) {
		c := d.chunks[off/chunkSize]
		m := copy(c[off%chunkSize:], p[n:])
		n += m
		off += int64(m)
	}
	if end > d.size {
		d.size = end
	}
	return n, nil
}

func (d *memDevice) truncate(size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < d.size {
		// Zero the cut tail so a later extension reads zeros, as a file would.
		for off := size; off < d.size; {
			c := d.chunks[off/chunkSize]
			in := off % chunkSize
			m := int64(chunkSize) - in
			if off+m > d.size {
				m = d.size - off
			}
			clear(c[in : in+m])
			off += m
		}
	}
	for int64(len(d.chunks))*chunkSize < size {
		d.chunks = append(d.chunks, make([]byte, chunkSize))
	}
	d.size = size
}

func (d *memDevice) len() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.size
}

// memFS is the memory-backed directory a benchmark database lives in: one
// device per replica path. Its OpenReplica plugs into
// gemstone.Options.OpenReplica, so the store's flush policy is untouched —
// every WriteAt and Sync it issues still runs — and only the device's
// latency is gone.
type memFS struct {
	mu      sync.Mutex
	devices map[string]*memDevice
}

func newMemFS() *memFS { return &memFS{devices: make(map[string]*memDevice)} }

// OpenReplica opens (creating if needed) the device behind path.
func (m *memFS) OpenReplica(path string, replica int) (store.ReplicaFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.devices[path]
	if !ok {
		d = &memDevice{}
		m.devices[path] = d
	}
	return &memFile{d: d, name: path}, nil
}

// Bytes is the total size of every device: the database's size on disk.
func (m *memFS) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, d := range m.devices {
		n += d.len()
	}
	return n
}

// memFile is one open handle on a memDevice; it implements store.ReplicaFile.
type memFile struct {
	d      *memDevice
	name   string
	closed atomic.Bool
}

var errClosed = errors.New("memdevice: file closed")

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, errClosed
	}
	return f.d.readAt(p, off)
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, errClosed
	}
	return f.d.writeAt(p, off)
}

// Sync has nothing to flush: the device is memory.
func (f *memFile) Sync() error {
	if f.closed.Load() {
		return errClosed
	}
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	if f.closed.Load() {
		return nil, errClosed
	}
	return memInfo{name: f.name, size: f.d.len()}, nil
}

func (f *memFile) Truncate(size int64) error {
	if f.closed.Load() {
		return errClosed
	}
	if size < 0 {
		return errors.New("memdevice: negative size")
	}
	f.d.truncate(size)
	return nil
}

func (f *memFile) Close() error {
	if f.closed.Swap(true) {
		return errClosed
	}
	return nil
}

// memInfo is the os.FileInfo of a memFile; the store reads only Size.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// ioCounts is what the counting wrapper saw, summed over every arm.
type ioCounts struct {
	writes, bytes, syncs atomic.Int64
	writeNS, syncNS      atomic.Int64
}

// countingFile wraps a replica device and counts and times the writes and
// syncs the store issues through it.
type countingFile struct {
	store.ReplicaFile
	c *ioCounts
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.ReplicaFile.WriteAt(p, off)
	f.c.writeNS.Add(int64(time.Since(t0)))
	f.c.writes.Add(1)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	t0 := time.Now()
	err := f.ReplicaFile.Sync()
	f.c.syncNS.Add(int64(time.Since(t0)))
	f.c.syncs.Add(1)
	return err
}

// countingOpen wraps every device open returns in a countingFile.
func countingOpen(open store.OpenReplicaFunc, c *ioCounts) store.OpenReplicaFunc {
	return func(path string, replica int) (store.ReplicaFile, error) {
		f, err := open(path, replica)
		if err != nil {
			return nil, err
		}
		return countingFile{ReplicaFile: f, c: c}, nil
	}
}
