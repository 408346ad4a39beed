package vdisk

import (
	"fmt"
	"sync"
)

// BlockStore is the media a Disk performs I/O against. The vdisk layer
// keeps the simulation concerns — fault injection, latent sectors, retry
// policies, telemetry — and delegates byte storage to a BlockStore, so the
// same RAID machinery runs over in-memory pages (MemStore), sparse local
// files (internal/vdisk/filestore), or any future backend.
//
// Contract:
//
//   - The store is sparse: reading a byte range that was never written
//     returns zeros, and ReadAt always fills p completely (n == len(p))
//     unless it fails. Stores never return io.EOF for reads past their
//     current size.
//   - WriteAt extends the store as needed; Size reports the high-water
//     mark in bytes (the end of the furthest write).
//   - Sync is a durability barrier: when it returns, every prior WriteAt
//     is on stable media. MemStore's Sync is a no-op by definition.
//   - Close releases the backing resources; the store is unusable after.
//
// Implementations must be safe for concurrent use: the Disk serializes its
// own I/O, but syncs and closes may run from other goroutines.
type BlockStore interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Sync() error
	Close() error
}

// Optional BlockStore capabilities. Disk methods probe for these with type
// assertions and fall back to portable behavior when absent.
type (
	// Trimmer deallocates a byte range: subsequent reads return zeros.
	// Without it, Disk.Trim falls back to writing zeros.
	Trimmer interface {
		Trim(off, length int64) error
	}
	// Resetter discards all contents, returning the store to its freshly
	// created state (Disk.Replace's "new drive" semantics).
	Resetter interface {
		Reset() error
	}
)

// Backend mints the BlockStore for each disk slot of an array: it is the
// unit of backend selection (the facade's "mem:" | "file:<dir>" specs map
// to MemBackend and filestore.Backend). Open both creates new stores and
// reopens existing ones — a slot id that was written before returns a
// store holding its durable contents.
type Backend interface {
	Open(id, blockSize int) (BlockStore, error)
}

// FailureRecorder is an optional Backend capability: a backend that keeps
// a durable record of its array (an array directory's meta.json, see
// internal/durable) is told of each disk's fail-stop state change while
// the disk's lock is held, before any I/O can observe the change. A
// degraded write, which only skips a disk it has seen failed, therefore
// never reaches the media while the record still calls that disk healthy.
// MemBackend has no record and so does no I/O on Fail or Replace.
// Because the disk's lock is held, RecordFailed must not do I/O through
// the array's disks.
type FailureRecorder interface {
	RecordFailed(id int, failed bool) error
}

// MemBackend is the default Backend: every slot gets a fresh MemStore.
// Contents do not survive the process; Sync is a no-op.
type MemBackend struct{}

// Open returns a new empty MemStore for the slot.
func (MemBackend) Open(id, blockSize int) (BlockStore, error) {
	return NewMemStore(blockSize), nil
}

// MemStore is the in-memory BlockStore: a sparse page map. It is the
// extraction of the original Disk block map behind the BlockStore seam,
// and remains the zero-configuration default for tests and simulations.
type MemStore struct {
	mu       sync.RWMutex
	pageSize int              // fixed at construction
	pages    map[int64][]byte //c56:guardedby mu
	// size is the high-water mark in bytes.
	size int64 //c56:guardedby mu
}

// NewMemStore returns an empty in-memory store with the given page size
// (the disk's block size; page granularity is what keeps BlocksInUse
// exact).
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		panic(fmt.Sprintf("vdisk: invalid mem store page size %d", pageSize))
	}
	return &MemStore{pageSize: pageSize, pages: make(map[int64][]byte)}
}

// ReadAt fills p from offset off; unwritten ranges read as zero.
func (s *MemStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vdisk: mem store read at negative offset %d", off)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps := int64(s.pageSize)
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		page, po := pos/ps, pos%ps
		c := len(p) - n
		if rem := int(ps - po); c > rem {
			c = rem
		}
		dst := p[n : n+c]
		if data, ok := s.pages[page]; ok {
			copy(dst, data[po:int(po)+c])
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
		n += c
	}
	return n, nil
}

// WriteAt stores p at offset off, allocating pages as needed.
func (s *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vdisk: mem store write at negative offset %d", off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := int64(s.pageSize)
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		page, po := pos/ps, pos%ps
		c := len(p) - n
		if rem := int(ps - po); c > rem {
			c = rem
		}
		data, ok := s.pages[page]
		if !ok {
			data = make([]byte, s.pageSize)
			s.pages[page] = data
		}
		copy(data[po:int(po)+c], p[n:n+c])
		n += c
	}
	if end := off + int64(len(p)); end > s.size {
		s.size = end
	}
	return n, nil
}

// Size returns the high-water mark in bytes.
func (s *MemStore) Size() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size, nil
}

// Sync is a no-op: memory has no separate durable medium.
func (s *MemStore) Sync() error { return nil }

// Close discards the pages.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = make(map[int64][]byte)
	s.size = 0
	return nil
}

// Trim deallocates the fully covered pages and zeroes the partial edges.
func (s *MemStore) Trim(off, length int64) error {
	if off < 0 || length < 0 {
		return fmt.Errorf("vdisk: mem store trim [%d,+%d)", off, length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := int64(s.pageSize)
	end := off + length
	for pos := off; pos < end; {
		page, po := pos/ps, pos%ps
		c := ps - po
		if rem := end - pos; c > rem {
			c = rem
		}
		if po == 0 && c == ps {
			delete(s.pages, page)
		} else if data, ok := s.pages[page]; ok {
			seg := data[po : po+c]
			for i := range seg {
				seg[i] = 0
			}
		}
		pos += c
	}
	return nil
}

// Reset discards all contents (Disk.Replace's fresh-drive semantics).
func (s *MemStore) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = make(map[int64][]byte)
	s.size = 0
	return nil
}

// PagesInUse returns the number of allocated pages (BlocksInUse's exact
// source for memory-backed disks).
func (s *MemStore) PagesInUse() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}
