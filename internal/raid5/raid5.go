// Package raid5 implements a RAID-5 array over the vdisk substrate: the
// starting point of every conversion the paper studies. All four standard
// parity placements are supported; the paper's default is left-asymmetric,
// whose rotation is what Code 5-6's horizontal parity anti-diagonal mirrors.
//
// Addressing: the array exposes logical data blocks 0..N-1. Logical block L
// lives in stripe row L/(m-1) at in-row position L%(m-1); each row has one
// parity block on the disk chosen by the layout's rotation.
package raid5

import (
	"errors"
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// Layout selects the parity rotation and data placement convention
// (following the Linux md naming).
type Layout int

const (
	// LeftAsymmetric: parity rotates from the last disk leftward; data
	// fills left-to-right skipping the parity disk. The paper's default.
	LeftAsymmetric Layout = iota
	// LeftSymmetric: parity as LeftAsymmetric; data starts just after the
	// parity disk and wraps (the Linux md default).
	LeftSymmetric
	// RightAsymmetric: parity rotates from the first disk rightward; data
	// fills left-to-right skipping the parity disk.
	RightAsymmetric
	// RightSymmetric: parity as RightAsymmetric; data starts just after
	// the parity disk and wraps.
	RightSymmetric
)

// String returns the md-style layout name.
func (l Layout) String() string {
	switch l {
	case LeftAsymmetric:
		return "left-asymmetric"
	case LeftSymmetric:
		return "left-symmetric"
	case RightAsymmetric:
		return "right-asymmetric"
	case RightSymmetric:
		return "right-symmetric"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ErrDoubleFailure is returned when an operation cannot complete because
// more than one disk has failed — the exact scenario RAID-5 cannot survive
// and the paper's motivation for migrating to RAID-6.
var ErrDoubleFailure = errors.New("raid5: more than one failed disk")

// tel holds the array's bound telemetry instruments (see README
// "Telemetry" for the metric reference).
type tel struct {
	tr            *telemetry.Tracer
	blockReads    *telemetry.Counter // ReadBlock calls served
	blockWrites   *telemetry.Counter // WriteBlock calls served
	degradedReads *telemetry.Counter // reads answered by reconstruction
	parityUpdates *telemetry.Counter // parity blocks written
	xors          *telemetry.Counter // block XOR operations
	rebuilt       *telemetry.Counter // blocks rebuilt onto replaced disks
}

func bindTel(reg *telemetry.Registry, tr *telemetry.Tracer) tel {
	return tel{
		tr:            tr,
		blockReads:    reg.Counter("raid5.block_reads"),
		blockWrites:   reg.Counter("raid5.block_writes"),
		degradedReads: reg.Counter("raid5.degraded_reads"),
		parityUpdates: reg.Counter("raid5.parity_updates"),
		xors:          reg.Counter("raid5.xors"),
		rebuilt:       reg.Counter("raid5.blocks_rebuilt"),
	}
}

// Array is a RAID-5 array of m >= 3 disks.
type Array struct {
	disks     *vdisk.Array
	m         int
	layout    Layout
	blockSize int
	tel       tel
}

// New creates a RAID-5 array over m fresh disks.
func New(m, blockSize int, layout Layout) (*Array, error) {
	if m < 3 {
		return nil, fmt.Errorf("raid5: need at least 3 disks, got %d", m)
	}
	return &Array{disks: vdisk.NewArray(m, blockSize), m: m, layout: layout, blockSize: blockSize, tel: bindTel(nil, nil)}, nil
}

// SetTelemetry rebinds the array's counters and tracer (and those of the
// underlying disks). Pass nil for either argument to use the process-wide
// defaults.
func (a *Array) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	a.tel = bindTel(reg, tr)
	a.disks.SetTelemetry(reg, tr)
}

// Wrap builds a RAID-5 view over existing disks (e.g. reopened from an
// array directory). The first m disks serve the RAID-5; extra disks — such as a
// partially filled diagonal-parity disk from an interrupted migration —
// are left untouched by RAID-5 operations.
func Wrap(disks *vdisk.Array, m int, layout Layout) (*Array, error) {
	if m < 3 {
		return nil, fmt.Errorf("raid5: need at least 3 disks, got %d", m)
	}
	if disks.Len() < m {
		return nil, fmt.Errorf("raid5: %d disks present, need at least %d", disks.Len(), m)
	}
	return &Array{disks: disks, m: m, layout: layout, blockSize: disks.BlockSize(), tel: bindTel(nil, nil)}, nil
}

// Disks exposes the underlying disk array (the migration engine attaches new
// disks through it).
func (a *Array) Disks() *vdisk.Array { return a.disks }

// M returns the number of disks.
func (a *Array) M() int { return a.m }

// Layout returns the parity placement convention.
func (a *Array) Layout() Layout { return a.layout }

// BlockSize returns the block size in bytes.
func (a *Array) BlockSize() int { return a.blockSize }

// ParityDisk returns the disk holding row's parity block.
func (a *Array) ParityDisk(row int64) int {
	r := int(row % int64(a.m))
	switch a.layout {
	case LeftAsymmetric, LeftSymmetric:
		return a.m - 1 - r
	default:
		return r
	}
}

// DataDisk returns the disk holding in-row data position k (0 <= k < m-1)
// of the given row.
func (a *Array) DataDisk(row int64, k int) int {
	pd := a.ParityDisk(row)
	switch a.layout {
	case LeftSymmetric, RightSymmetric:
		return (pd + 1 + k) % a.m
	default:
		if k < pd {
			return k
		}
		return k + 1
	}
}

// Locate maps a logical data block to its (row, disk) location.
func (a *Array) Locate(logical int64) (row int64, disk int) {
	row = logical / int64(a.m-1)
	k := int(logical % int64(a.m-1))
	return row, a.DataDisk(row, k)
}

// failedDisks returns the indices of failed disks.
func (a *Array) failedDisks() []int {
	var f []int
	for i := 0; i < a.m; i++ {
		if a.disks.Disk(i).Failed() {
			f = append(f, i)
		}
	}
	return f
}

// ReadBlock reads logical data block L, reconstructing from parity if the
// holding disk has failed or the block is unreadable (degraded read).
func (a *Array) ReadBlock(logical int64, buf []byte) error {
	a.tel.blockReads.Inc()
	row, disk := a.Locate(logical)
	err := a.disks.Disk(disk).Read(row, buf)
	if err == nil {
		return nil
	}
	if !isDegradable(err) {
		return err
	}
	a.tel.degradedReads.Inc()
	return a.reconstructInto(row, disk, buf)
}

// isDegradable reports whether a read error can be served by
// reconstruction: fail-stopped disks, latent sector errors, and transient
// faults that survived the disk's retry policy.
func isDegradable(err error) bool {
	return errors.Is(err, vdisk.ErrFailed) || errors.Is(err, vdisk.ErrLatent) ||
		errors.Is(err, vdisk.ErrTransient)
}

// ReconstructBlock rebuilds the physical block at (row, disk) — data or
// parity — from the other columns of the row into buf: a degraded read of
// an arbitrary cell. The online migrator uses it to survive latent errors
// in stripes it is converting.
func (a *Array) ReconstructBlock(row int64, disk int, buf []byte) error {
	if disk < 0 || disk >= a.m {
		return fmt.Errorf("raid5: disk %d outside 0..%d", disk, a.m-1)
	}
	if len(buf) != a.blockSize {
		return fmt.Errorf("raid5: reconstruct into %d bytes, want %d", len(buf), a.blockSize)
	}
	a.tel.degradedReads.Inc()
	return a.reconstructInto(row, disk, buf)
}

// reconstructInto rebuilds (row, disk) from all other disks into buf.
func (a *Array) reconstructInto(row int64, disk int, buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	tmp := bufpool.Get(a.blockSize)
	defer bufpool.Put(tmp)
	for i := 0; i < a.m; i++ {
		if i == disk {
			continue
		}
		if err := a.disks.Disk(i).Read(row, tmp); err != nil {
			if errors.Is(err, vdisk.ErrFailed) {
				return fmt.Errorf("%w: disks %d and %d", ErrDoubleFailure, disk, i)
			}
			// A latent or transient error on a peer is a second fault in
			// this row — beyond single-parity tolerance.
			return fmt.Errorf("raid5: reconstructing (row %d, disk %d) needs disk %d: %w", row, disk, i, err)
		}
		xorblk.Xor(buf, tmp)
		a.tel.xors.Inc()
	}
	return nil
}

// WriteBlock writes logical data block L using read-modify-write: the
// parity is updated with the XOR delta of old and new data. Degraded
// states (one failed disk) are handled by reconstruct-write.
func (a *Array) WriteBlock(logical int64, data []byte) error {
	if len(data) != a.blockSize {
		return fmt.Errorf("raid5: write of %d bytes, want %d", len(data), a.blockSize)
	}
	a.tel.blockWrites.Inc()
	row, disk := a.Locate(logical)
	pd := a.ParityDisk(row)

	dataDisk := a.disks.Disk(disk)
	parityDisk := a.disks.Disk(pd)

	switch {
	case !dataDisk.Failed() && !parityDisk.Failed():
		old := bufpool.Get(a.blockSize)
		defer bufpool.Put(old)
		if err := dataDisk.Read(row, old); err != nil {
			if !isDegradable(err) {
				return err
			}
			// The old data is unreadable (latent/transient): fall back to
			// reconstruct-write, which never needs it. Writing the new
			// data clears any latent error on the block.
			return a.reconstructWrite(row, disk, pd, data, true)
		}
		parity := bufpool.Get(a.blockSize)
		defer bufpool.Put(parity)
		if err := parityDisk.Read(row, parity); err != nil {
			if !isDegradable(err) {
				return err
			}
			// The old parity is unreadable: recompute it from scratch.
			return a.reconstructWrite(row, disk, pd, data, true)
		}
		// parity ^= old ^ new
		xorblk.Xor(parity, old)
		xorblk.Xor(parity, data)
		a.tel.xors.Add(2)
		if err := dataDisk.Write(row, data); err != nil {
			return err
		}
		a.tel.parityUpdates.Inc()
		return parityDisk.Write(row, parity)

	case dataDisk.Failed():
		return a.reconstructWrite(row, disk, pd, data, false)

	default:
		// Parity disk failed: just write the data; parity is lost until
		// rebuild.
		return dataDisk.Write(row, data)
	}
}

// reconstructWrite writes logical data by full-row reconstruction: the new
// parity is the XOR of the new data and the row's other data blocks, so
// neither the old data nor the old parity is read. writeData is false when
// the data disk itself is failed (only the parity is written; the data is
// restored at rebuild time).
func (a *Array) reconstructWrite(row int64, disk, pd int, data []byte, writeData bool) error {
	parity := bufpool.Get(a.blockSize)
	defer bufpool.Put(parity)
	copy(parity, data)
	tmp := bufpool.Get(a.blockSize)
	defer bufpool.Put(tmp)
	for i := 0; i < a.m; i++ {
		if i == disk || i == pd {
			continue
		}
		if err := a.disks.Disk(i).Read(row, tmp); err != nil {
			if errors.Is(err, vdisk.ErrFailed) {
				return fmt.Errorf("%w: disks %d and %d", ErrDoubleFailure, disk, i)
			}
			return fmt.Errorf("raid5: reconstruct-write (row %d, disk %d) needs disk %d: %w", row, disk, i, err)
		}
		xorblk.Xor(parity, tmp)
		a.tel.xors.Inc()
	}
	if writeData {
		if err := a.disks.Disk(disk).Write(row, data); err != nil {
			return err
		}
	}
	a.tel.parityUpdates.Inc()
	return a.disks.Disk(pd).Write(row, parity)
}

// WriteParity recomputes and writes the parity of a row from its data
// blocks (full-stripe parity generation).
func (a *Array) WriteParity(row int64) error {
	pd := a.ParityDisk(row)
	parity := bufpool.GetZero(a.blockSize)
	defer bufpool.Put(parity)
	tmp := bufpool.Get(a.blockSize)
	defer bufpool.Put(tmp)
	for i := 0; i < a.m; i++ {
		if i == pd {
			continue
		}
		if err := a.disks.Disk(i).Read(row, tmp); err != nil {
			return err
		}
		xorblk.Xor(parity, tmp)
		a.tel.xors.Inc()
	}
	a.tel.parityUpdates.Inc()
	return a.disks.Disk(pd).Write(row, parity)
}

// Rebuild reconstructs every row of a replaced disk from the surviving
// disks. Call vdisk.Disk.Replace on the failed disk first. rows is the
// number of stripe rows to rebuild.
func (a *Array) Rebuild(disk int, rows int64) error {
	if len(a.failedDisks()) > 0 {
		return fmt.Errorf("%w: cannot rebuild with failed disks present", ErrDoubleFailure)
	}
	sp := a.tel.tr.StartSpan("raid5.rebuild", telemetry.A("disk", disk), telemetry.A("rows", rows))
	buf := bufpool.Get(a.blockSize)
	defer bufpool.Put(buf)
	for row := int64(0); row < rows; row++ {
		if err := a.reconstructInto(row, disk, buf); err != nil {
			sp.End(telemetry.A("error", err.Error()))
			return err
		}
		if err := a.disks.Disk(disk).Write(row, buf); err != nil {
			sp.End(telemetry.A("error", err.Error()))
			return err
		}
		a.tel.rebuilt.Inc()
	}
	sp.End(telemetry.A("blocks", rows))
	return nil
}

// VerifyRow checks that the row's parity equals the XOR of its data blocks.
func (a *Array) VerifyRow(row int64) (bool, error) {
	acc := bufpool.GetZero(a.blockSize)
	defer bufpool.Put(acc)
	tmp := bufpool.Get(a.blockSize)
	defer bufpool.Put(tmp)
	for i := 0; i < a.m; i++ {
		if err := a.disks.Disk(i).Read(row, tmp); err != nil {
			return false, err
		}
		xorblk.Xor(acc, tmp)
	}
	return xorblk.IsZero(acc), nil
}
