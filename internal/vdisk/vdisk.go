// Package vdisk provides the simulated block-device substrate the RAID
// layers run on: in-memory disks with per-disk I/O accounting, fail-stop
// failure injection, and latent sector errors (the unrecoverable-error class
// the paper's motivation section cites as the reason to migrate RAID-5
// arrays to RAID-6).
//
// Disks are safe for concurrent use; the online-migration engine drives
// application I/O and conversion I/O against the same disks from separate
// goroutines.
package vdisk

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"code56/internal/bufpool"
	"code56/internal/telemetry"
)

// Error values returned by disk operations.
var (
	// ErrFailed is returned by any I/O against a fail-stopped disk.
	ErrFailed = errors.New("vdisk: disk failed")
	// ErrLatent is returned when reading a block with an injected latent
	// sector error; writes clear the error (sector remap semantics).
	ErrLatent = errors.New("vdisk: latent sector error")
	// ErrTransient is returned when the fault injector makes an I/O fail
	// transiently; the same operation may succeed when retried (see
	// SetRetry for the built-in retry-with-backoff policy).
	ErrTransient = errors.New("vdisk: transient I/O error")
	// ErrBadBlock is returned for negative block addresses or size
	// mismatches.
	ErrBadBlock = errors.New("vdisk: bad block request")
)

// Stats counts the I/O a disk has served. Failed operations are not
// counted.
//
// Contract: Stats counters are *resettable* — ResetStats zeroes them, and
// the migration cost accounting relies on that to scope totals to one
// experiment phase. The per-disk telemetry gauges
// (vdisk.disk.<id>.reads/.writes) mirror Stats exactly, including resets.
// The package-wide telemetry counters (vdisk.reads, vdisk.writes, …) are
// *monotonic* for the life of the process and are never reset; use those
// for rates and cross-experiment totals.
type Stats struct {
	Reads  int64
	Writes int64
}

// Total returns Reads+Writes.
func (s Stats) Total() int64 { return s.Reads + s.Writes }

// Disk is a simulated block device with a fixed block size over a
// pluggable BlockStore (in-memory by default; see NewDiskStore and the
// filestore package for durable backends). Unwritten blocks read as zero,
// matching the NULL/virtual-element semantics the migration algorithms
// rely on. The zero value is not usable; construct with NewDisk or
// NewDiskStore.
type Disk struct {
	id        int
	blockSize int

	mu sync.RWMutex
	// store is fixed at construction (Replace wipes media through the
	// store's Resetter rather than swapping the store), so it carries no
	// guard annotation; so is rec, the backend's FailureRecorder (nil for
	// memory-backed disks).
	store  BlockStore
	rec    FailureRecorder
	failed bool //c56:guardedby mu
	// failedErr caches the wrapped fail-stop error, built on first use:
	// every I/O against a failed disk returns the same value, so the
	// degraded-read hot path (reconstruct around the failure, possibly for
	// millions of blocks) does not allocate a fresh error per call.
	failedErr error          //c56:guardedby mu
	latent    map[int64]bool //c56:guardedby mu
	stats     Stats          //c56:guardedby mu
	tel       diskTel

	// faults, when non-nil, is the armed fault injector (see faults.go).
	faults *faultState //c56:guardedby mu
	// retryMax/retryBase are the transient-error retry policy: up to
	// retryMax retries with exponential backoff starting at retryBase.
	retryMax  int           //c56:guardedby mu
	retryBase time.Duration //c56:guardedby mu
}

// NewDisk returns an empty memory-backed disk with the given id and block
// size, bound to the default telemetry registry (rebind with SetTelemetry).
func NewDisk(id, blockSize int) *Disk {
	if blockSize <= 0 {
		panic(fmt.Sprintf("vdisk: invalid block size %d", blockSize))
	}
	return NewDiskStore(id, blockSize, NewMemStore(blockSize))
}

// NewDiskStore returns a disk over an explicit BlockStore — the seam the
// durable backends plug into. The store's existing contents (a reopened
// file image) become the disk's contents.
func NewDiskStore(id, blockSize int, store BlockStore) *Disk {
	if blockSize <= 0 {
		panic(fmt.Sprintf("vdisk: invalid block size %d", blockSize))
	}
	if store == nil {
		panic("vdisk: nil block store")
	}
	d := &Disk{
		id:        id,
		blockSize: blockSize,
		store:     store,
		latent:    make(map[int64]bool),
	}
	d.bindTelemetry(nil, nil)
	return d
}

// ID returns the disk's identifier.
func (d *Disk) ID() int { return d.id }

// BlockSize returns the disk's block size in bytes.
func (d *Disk) BlockSize() int { return d.blockSize }

// Read copies block b into buf. buf must be exactly one block long.
// Transient faults from the injector are retried per the SetRetry policy
// before the error is surfaced.
//
//c56:noalloc
func (d *Disk) Read(b int64, buf []byte) error {
	if b < 0 || len(buf) != d.blockSize {
		return fmt.Errorf("%w: read block %d, buf %d", ErrBadBlock, b, len(buf))
	}
	max, base := d.retryPolicy()
	for attempt := 0; ; attempt++ {
		err := d.readAttempt(b, buf)
		if err == nil || !errors.Is(err, ErrTransient) || attempt >= max {
			return err
		}
		d.tel.retries.Inc()
		time.Sleep(backoff(base, attempt+1))
	}
}

//c56:noalloc
func (d *Disk) readAttempt(b int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The latency clock starts after the lock is acquired: the histograms
	// measure device service time only, excluding queueing behind other
	// callers (see diskTel).
	start := time.Now()
	if err := d.faultCheck(b, false); err != nil {
		d.tel.readErrs.Inc()
		return err
	}
	if d.latent[b] {
		d.tel.readErrs.Inc()
		d.tel.latent.Inc()
		d.tel.tr.Event("vdisk.latent_hit", telemetry.A("disk", d.id), telemetry.A("block", b))
		return fmt.Errorf("%w: disk %d block %d", ErrLatent, d.id, b)
	}
	if _, err := d.store.ReadAt(buf, b*int64(d.blockSize)); err != nil {
		d.tel.readErrs.Inc()
		return fmt.Errorf("vdisk: disk %d block %d: %w", d.id, b, err)
	}
	d.stats.Reads++
	d.tel.reads.Set(d.stats.Reads)
	d.tel.allReads.Inc()
	d.tel.ioRate.Inc()
	d.tel.ioBytes.Observe(float64(d.blockSize))
	d.tel.readLat.Observe(float64(time.Since(start).Nanoseconds()) / 1e3)
	return nil
}

// faultCheck runs the fail-stop state and the armed injector against one
// I/O attempt. Caller holds d.mu.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) faultCheck(b int64, write bool) error {
	if d.failed {
		if d.failedErr == nil {
			d.failedErr = fmt.Errorf("%w: disk %d", ErrFailed, d.id)
		}
		return d.failedErr
	}
	f := d.faults
	if f == nil {
		return nil
	}
	f.ios++
	if f.cfg.FailAtIO > 0 && f.ios >= f.cfg.FailAtIO {
		d.setFailed()
		d.tel.fails.Inc()
		d.tel.tr.Event("vdisk.scheduled_fail", telemetry.A("disk", d.id), telemetry.A("at_io", f.ios))
		return fmt.Errorf("%w: disk %d (scheduled failure at I/O %d)", ErrFailed, d.id, f.ios)
	}
	prob := f.cfg.ReadTransientProb
	if write {
		prob = f.cfg.WriteTransientProb
	}
	if prob > 0 && f.rng.Float64() < prob {
		d.tel.transients.Inc()
		return fmt.Errorf("%w: disk %d block %d", ErrTransient, d.id, b)
	}
	if !write && f.cfg.LatentProb > 0 && !d.latent[b] && f.rng.Float64() < f.cfg.LatentProb {
		d.latent[b] = true                                                                          //lint:allow noalloc latent-error injection is a simulated-fault path, not steady state
		d.tel.tr.Event("vdisk.latent_injected", telemetry.A("disk", d.id), telemetry.A("block", b)) //lint:allow noalloc fault-path trace event
	}
	return nil
}

// Write stores data as block b. data must be exactly one block long.
// Writing clears any latent error on the block. Transient faults from the
// injector are retried per the SetRetry policy.
//
//c56:noalloc
func (d *Disk) Write(b int64, data []byte) error {
	if b < 0 || len(data) != d.blockSize {
		return fmt.Errorf("%w: write block %d, data %d", ErrBadBlock, b, len(data))
	}
	max, base := d.retryPolicy()
	for attempt := 0; ; attempt++ {
		err := d.writeAttempt(b, data)
		if err == nil || !errors.Is(err, ErrTransient) || attempt >= max {
			return err
		}
		d.tel.retries.Inc()
		time.Sleep(backoff(base, attempt+1))
	}
}

//c56:noalloc
func (d *Disk) writeAttempt(b int64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now() // after the lock: service time only, see diskTel
	if err := d.faultCheck(b, true); err != nil {
		d.tel.writeErrs.Inc()
		return err
	}
	if _, err := d.store.WriteAt(data, b*int64(d.blockSize)); err != nil {
		d.tel.writeErrs.Inc()
		return fmt.Errorf("vdisk: disk %d block %d: %w", d.id, b, err)
	}
	delete(d.latent, b)
	d.stats.Writes++
	d.tel.writes.Set(d.stats.Writes)
	d.tel.allWrites.Inc()
	d.tel.ioRate.Inc()
	d.tel.ioBytes.Observe(float64(d.blockSize))
	d.tel.writeLat.Observe(float64(time.Since(start).Nanoseconds()) / 1e3)
	return nil
}

// Trim discards block b's contents; subsequent reads return zeros. It is
// not counted as an I/O (it models invalidating a parity block's mapping,
// not writing it — use Write for the paper's NULL-write accounting).
// Stores implementing Trimmer deallocate; others get the block zeroed.
func (d *Disk) Trim(b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	off := b * int64(d.blockSize)
	if t, ok := d.store.(Trimmer); ok {
		_ = t.Trim(off, int64(d.blockSize))
		return
	}
	zero := bufpool.GetZero(d.blockSize)
	defer bufpool.Put(zero)
	_, _ = d.store.WriteAt(zero, off)
}

// Sync is the disk's durability barrier: it flushes every prior write to
// the backing store's stable medium (a no-op for memory-backed disks). A
// fail-stopped disk cannot be synced.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		if d.failedErr == nil {
			d.failedErr = fmt.Errorf("%w: disk %d", ErrFailed, d.id)
		}
		return d.failedErr
	}
	if err := d.store.Sync(); err != nil {
		return fmt.Errorf("vdisk: disk %d: %w", d.id, err)
	}
	d.tel.syncs.Inc()
	return nil
}

// Close releases the disk's backing store. The disk is unusable after.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.Close()
}

// Store exposes the disk's BlockStore (tests and store-level tooling).
func (d *Disk) Store() BlockStore {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.store
}

// Fail marks the disk fail-stopped: every subsequent I/O errors until
// Replace is called. On a backend with a FailureRecorder the failure is
// recorded durably before Fail returns.
func (d *Disk) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.failed {
		d.tel.fails.Inc()
		d.tel.tr.Event("vdisk.fail", telemetry.A("disk", d.id))
	}
	d.setFailed()
}

// setFailed fail-stops the disk and tells the backend's FailureRecorder.
// A recording error cannot undo the failure; it becomes the error every
// later I/O against the disk returns.
//
//c56:requires mu
func (d *Disk) setFailed() {
	d.failed = true
	if d.rec == nil {
		return
	}
	if err := d.rec.RecordFailed(d.id, true); err != nil {
		d.failedErr = fmt.Errorf("%w: disk %d (recording the failure: %v)", ErrFailed, d.id, err)
	}
}

// Failed reports whether the disk is fail-stopped.
//
//c56:noalloc
func (d *Disk) Failed() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.failed
}

// Replace swaps in a fresh drive: contents, latent errors and any armed
// fault injector are discarded (new hardware does not inherit the old
// drive's fault scenario — re-arm with SetFaults if desired) and the disk
// accepts I/O again. Stats are preserved (they describe the slot, which is
// how the migration cost accounting uses them), as is the retry policy
// (it describes the controller, not the drive).
//
// Wiping the media goes through the store's Resetter capability (both
// built-in backends have it). Only then is the backend's FailureRecorder
// told the disk is healthy, so a durable record never calls an unwiped
// image good. If the reset or the record fails — a durable backend that
// cannot truncate its file or rewrite its meta — the disk stays
// fail-stopped with that error, so a half-replaced drive is never
// silently put back in service.
func (d *Disk) Replace() {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if r, ok := d.store.(Resetter); ok {
		err = r.Reset()
	}
	if err == nil && d.rec != nil {
		err = d.rec.RecordFailed(d.id, false)
	}
	if err != nil {
		d.failed = true
		d.failedErr = fmt.Errorf("%w: disk %d (replace: %v)", ErrFailed, d.id, err)
		return
	}
	d.failed = false
	d.failedErr = nil
	d.latent = make(map[int64]bool)
	d.faults = nil
	d.tel.replaces.Inc()
	d.tel.tr.Event("vdisk.replace", telemetry.A("disk", d.id))
}

// InjectLatentError marks block b with a latent sector error: reads fail
// until the block is rewritten.
func (d *Disk) InjectLatentError(b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.latent[b] = true
	d.tel.tr.Event("vdisk.latent_injected", telemetry.A("disk", d.id), telemetry.A("block", b))
}

// Stats returns a snapshot of the disk's I/O counters.
func (d *Disk) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}

// ResetStats zeroes the I/O counters and the per-disk telemetry gauges
// mirroring them. The package-wide monotonic counters are unaffected (see
// the Stats contract).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.tel.reads.Set(0)
	d.tel.writes.Set(0)
}

// BlocksInUse returns the number of blocks holding written data. It is
// backend-dependent: a MemStore paged at the disk's block size reports
// allocated blocks exactly; other stores report the high-water block
// count from Size.
func (d *Disk) BlocksInUse() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if m, ok := d.store.(*MemStore); ok && m.pageSize == d.blockSize {
		return m.PagesInUse()
	}
	size, err := d.store.Size()
	if err != nil {
		return 0
	}
	return int((size + int64(d.blockSize) - 1) / int64(d.blockSize))
}

// Array is an ordered set of disks sharing a block size and a Backend. It
// supports the add/remove operations RAID level migration performs.
type Array struct {
	mu sync.RWMutex
	// blockSize is fixed at construction and shared by every disk, so it
	// carries no guard annotation.
	blockSize int
	disks     []*Disk             //c56:guardedby mu
	nextID    int                 //c56:guardedby mu
	backend   Backend             //c56:guardedby mu
	reg       *telemetry.Registry //c56:guardedby mu
	tr        *telemetry.Tracer   //c56:guardedby mu

	// faults/retryMax/retryBase remember the array-wide fault scenario and
	// retry policy so disks attached later with Add() join them.
	faults    *FaultConfig  //c56:guardedby mu
	retryMax  int           //c56:guardedby mu
	retryBase time.Duration //c56:guardedby mu
}

// NewArray returns an array of n fresh memory-backed disks.
func NewArray(n, blockSize int) *Array {
	a, err := NewArrayBackend(n, blockSize, MemBackend{})
	if err != nil {
		// MemBackend.Open never fails.
		panic(err)
	}
	return a
}

// NewArrayBackend returns an array of n disks whose stores come from the
// given backend (slots 0..n-1). Stores that already hold data — reopened
// file images — keep their contents.
func NewArrayBackend(n, blockSize int, b Backend) (*Array, error) {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return NewArrayFrom(blockSize, b, ids)
}

// NewArrayFrom assembles an array over the backend's stores for the given
// slot ids, in order — the reopen path for durable arrays, where the slot
// set on media (including a diagonal-parity disk added by an interrupted
// migration) decides the geometry. Opened stores are closed again if a
// later open fails.
func NewArrayFrom(blockSize int, b Backend, ids []int) (*Array, error) {
	if b == nil {
		b = MemBackend{}
	}
	a := &Array{blockSize: blockSize, backend: b}
	for _, id := range ids {
		s, err := b.Open(id, blockSize)
		if err != nil {
			_ = a.Close()
			return nil, fmt.Errorf("vdisk: opening store for disk %d: %w", id, err)
		}
		d := NewDiskStore(id, blockSize, s)
		d.rec, _ = b.(FailureRecorder)
		a.disks = append(a.disks, d)
		if id >= a.nextID {
			a.nextID = id + 1
		}
	}
	return a, nil
}

// Backend returns the array's store backend (MemBackend for the default
// in-memory arrays). The facade uses it to detect durable arrays and
// thread the migration journal to their directory.
func (a *Array) Backend() Backend {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.backend
}

// BlockSize returns the shared block size.
//
//c56:noalloc
func (a *Array) BlockSize() int { return a.blockSize }

// Len returns the number of disks.
func (a *Array) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.disks)
}

// Disk returns disk i.
//
//c56:noalloc
func (a *Array) Disk(i int) *Disk {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.disks[i]
}

// Add appends a fresh disk and returns it (the "add a new disk to the
// array" step of the paper's Algorithm 2). It panics if the backend cannot
// mint the slot's store; use Attach to handle that error — memory-backed
// arrays never fail.
func (a *Array) Add() *Disk {
	d, err := a.Attach()
	if err != nil {
		panic(err)
	}
	return d
}

// Attach appends a fresh disk, minting its store from the array's backend,
// and returns it. It is Add with the backend error surfaced.
func (a *Array) Attach() (*Disk, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	backend := a.backend
	if backend == nil {
		backend = MemBackend{}
	}
	s, err := backend.Open(a.nextID, a.blockSize)
	if err != nil {
		return nil, fmt.Errorf("vdisk: opening store for disk %d: %w", a.nextID, err)
	}
	d := NewDiskStore(a.nextID, a.blockSize, s)
	d.rec, _ = backend.(FailureRecorder)
	if a.reg != nil || a.tr != nil {
		d.bindTelemetry(a.reg, a.tr)
	}
	if a.faults != nil {
		cfg := *a.faults
		cfg.Seed = derivedSeed(a.faults.Seed, d.id)
		_ = d.SetFaults(cfg) // cfg was validated when the array armed it
	}
	if a.retryMax > 0 || a.retryBase > 0 {
		_ = d.SetRetry(a.retryMax, a.retryBase)
	}
	a.nextID++
	a.disks = append(a.disks, d)
	return d, nil
}

// Sync flushes every non-failed disk to stable media — the array-wide
// durability barrier the migration journal orders its watermark records
// behind. Failed disks are skipped (their contents are dead anyway and the
// journal parks the migration at its watermark); the first store error is
// returned.
func (a *Array) Sync() error {
	a.mu.RLock()
	disks := append([]*Disk(nil), a.disks...)
	a.mu.RUnlock()
	for _, d := range disks {
		if d.Failed() {
			continue
		}
		if err := d.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every disk's backing store and returns the first error.
// The array is unusable after.
func (a *Array) Close() error {
	a.mu.RLock()
	disks := append([]*Disk(nil), a.disks...)
	a.mu.RUnlock()
	var first error
	for _, d := range disks {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RemoveLast detaches and returns the last disk (the RAID-6 → RAID-5
// conversion direction). It returns nil if the array is empty.
func (a *Array) RemoveLast() *Disk {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.disks) == 0 {
		return nil
	}
	d := a.disks[len(a.disks)-1]
	a.disks = a.disks[:len(a.disks)-1]
	return d
}

// FailedDisks returns the slot indices of fail-stopped disks, in order.
// It is the substrate of the observability plane's array health checker: an
// empty result means every disk accepts I/O.
func (a *Array) FailedDisks() []int {
	a.mu.RLock()
	disks := append([]*Disk(nil), a.disks...)
	a.mu.RUnlock()
	var failed []int
	for i, d := range disks {
		if d.Failed() {
			failed = append(failed, i)
		}
	}
	return failed
}

// TotalStats sums the stats of all disks.
func (a *Array) TotalStats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var t Stats
	for _, d := range a.disks {
		s := d.Stats()
		t.Reads += s.Reads
		t.Writes += s.Writes
	}
	return t
}

// ResetStats zeroes every disk's counters.
func (a *Array) ResetStats() {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, d := range a.disks {
		d.ResetStats()
	}
}
