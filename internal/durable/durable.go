// Package durable defines the one on-disk form of an array: a directory
// holding one sparse image per disk (disk-NNNN.img, internal/vdisk/
// filestore), the migration intent log (wal.log, internal/wal) and
// meta.json, the identity record this package owns. Reopen needs nothing
// but the directory.
//
// meta.json records every piece of state that changes what a read
// returns:
//
//	version     the format version (MetaVersion)
//	kind        "raid5" or "raid6"
//	block_size  the block size shared by every image
//	disks       the image count the array spans (a mid-migration RAID-5's
//	            diagonal-parity disk is on media but not yet counted)
//	layout      RAID-5 only: the md-style parity rotation
//	rows        RAID-5 only: the data-row count a migration converts
//	manifest    RAID-6 only: the erasure code (name, prime, block size),
//	            the stripe count it was built with (0 for an array created
//	            empty) and the per-stripe parity rotation flag
//	failed      the slot ids of fail-stopped disks, written before Fail
//	            returns and cleared after Replace wipes the image
//
// Every rewrite is atomic (temp file + fsync + rename + directory fsync),
// so a crash leaves either the old record or the new one, never a mix.
// Latent-sector markers are deliberately not recorded: the image keeps the
// last written bytes, so a marker never makes a read return other data.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hcode"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/raid5"
	"code56/internal/vdisk/filestore"
)

// MetaVersion is the current meta.json format version. The manifest
// carries the same number.
const MetaVersion = 1

// maxP bounds a manifest's prime: code construction is quadratic in p, and
// no array spans a thousand disks.
const maxP = 1 << 10

// File names inside an array directory, beside the disk-NNNN.img files.
const (
	MetaFile = "meta.json"
	WALFile  = "wal.log"
)

// Array kinds.
const (
	KindRAID5 = "raid5"
	KindRAID6 = "raid6"
)

// ErrBadMeta is returned for malformed or unsupported metadata.
var ErrBadMeta = errors.New("durable: bad metadata")

// ErrNoMeta is returned when the directory has no meta.json at all.
var ErrNoMeta = errors.New("durable: no metadata")

// Meta is a directory's identity record. For a RAID-5 it carries the
// layout and the data-row count; for a RAID-6 it embeds the code's
// Manifest. The migration's meta flip — the single atomic step that turns
// a RAID-5 directory into a RAID-6 one — replaces a KindRAID5 Meta with a
// KindRAID6 one (see Flip).
type Meta struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"`
	BlockSize int    `json:"block_size"`
	// Disks is the image-file count the directory should hold (data +
	// parity; for a mid-migration RAID-5 the extra diagonal disk is on
	// media but not yet counted here).
	Disks int `json:"disks"`
	// Layout is the RAID-5 parity rotation (md-style name); empty for
	// RAID-6.
	Layout string `json:"layout,omitempty"`
	// Rows is the RAID-5 data-row count — what a migration will convert.
	Rows int64 `json:"rows,omitempty"`
	// Manifest is the RAID-6 identity (code, prime, stripes, rotation).
	Manifest *Manifest `json:"manifest,omitempty"`
	// Failed lists the slot ids of fail-stopped disks, ascending.
	Failed []int `json:"failed,omitempty"`
}

// Manifest identifies a RAID-6's erasure code and geometry.
type Manifest struct {
	// Version is the manifest format version (MetaVersion).
	Version int `json:"version"`
	// CodeName is the code's Name() ("code56", "code56r", "rdp",
	// "evenodd", "xcode", "pcode", "pcode-p", "hcode", "hdp").
	CodeName string `json:"code"`
	// P is the code's prime parameter.
	P int `json:"p"`
	// BlockSize is the array's block size in bytes.
	BlockSize int `json:"block_size"`
	// Stripes is the stripe count the array was built with: the converted
	// count for a migrated array, 0 for one created empty (it grows on
	// write).
	Stripes int64 `json:"stripes"`
	// Rotated records per-stripe parity rotation.
	Rotated bool `json:"rotated,omitempty"`
}

// RAID6Meta is the identity record of a RAID-6 over code: the one
// constructor for a fresh array, a migration's commit and tests.
func RAID6Meta(code layout.Code, blockSize int, stripes int64) Meta {
	return Meta{
		Version:   MetaVersion,
		Kind:      KindRAID6,
		BlockSize: blockSize,
		Disks:     code.Geometry().Cols,
		Manifest: &Manifest{
			Version:   MetaVersion,
			CodeName:  code.Name(),
			P:         code.Geometry().P,
			BlockSize: blockSize,
			Stripes:   stripes,
		},
	}
}

// BuildCode reconstructs the erasure code a manifest names.
func BuildCode(m Manifest) (layout.Code, error) {
	var (
		code layout.Code
		err  error
	)
	switch m.CodeName {
	case "code56":
		code, err = core.New(m.P)
	case "code56r":
		code, err = core.NewOriented(m.P, core.Right)
	case "rdp":
		code, err = rdp.New(m.P)
	case "evenodd":
		code, err = evenodd.New(m.P)
	case "xcode":
		code, err = xcode.New(m.P)
	case "pcode":
		code, err = pcode.New(m.P, pcode.VariantPMinus1)
	case "pcode-p":
		code, err = pcode.New(m.P, pcode.VariantP)
	case "hcode":
		code, err = hcode.New(m.P)
	case "hdp":
		code, err = hdp.New(m.P)
	default:
		return nil, fmt.Errorf("%w: unknown code %q", ErrBadMeta, m.CodeName)
	}
	if err != nil {
		// A constructor rejecting the parameters (a non-prime P) means the
		// manifest itself is bad.
		return nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	return code, nil
}

// Validate checks the manifest's internal consistency.
func (m Manifest) Validate() error {
	if m.Version != MetaVersion {
		return fmt.Errorf("%w: unsupported manifest version %d", ErrBadMeta, m.Version)
	}
	if m.BlockSize <= 0 {
		return fmt.Errorf("%w: block size %d", ErrBadMeta, m.BlockSize)
	}
	if m.Stripes < 0 {
		return fmt.Errorf("%w: negative stripes", ErrBadMeta)
	}
	if m.P > maxP {
		return fmt.Errorf("%w: prime %d above %d", ErrBadMeta, m.P, maxP)
	}
	_, err := BuildCode(m)
	return err
}

// ParseLayout maps an md-style layout name back to the raid5 constant.
func ParseLayout(name string) (raid5.Layout, error) {
	for _, l := range []raid5.Layout{
		raid5.LeftAsymmetric, raid5.LeftSymmetric,
		raid5.RightAsymmetric, raid5.RightSymmetric,
	} {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown layout %q", ErrBadMeta, name)
}

// Validate checks internal consistency.
func (m Meta) Validate() error {
	if m.Version != MetaVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadMeta, m.Version)
	}
	if m.BlockSize <= 0 {
		return fmt.Errorf("%w: block size %d", ErrBadMeta, m.BlockSize)
	}
	if m.Disks <= 0 {
		return fmt.Errorf("%w: disk count %d", ErrBadMeta, m.Disks)
	}
	for i, id := range m.Failed {
		if id < 0 || (i > 0 && id <= m.Failed[i-1]) {
			return fmt.Errorf("%w: failed disks %v are not ascending slot ids", ErrBadMeta, m.Failed)
		}
	}
	switch m.Kind {
	case KindRAID5:
		if _, err := ParseLayout(m.Layout); err != nil {
			return err
		}
		if m.Rows < 0 {
			return fmt.Errorf("%w: negative rows", ErrBadMeta)
		}
	case KindRAID6:
		if m.Manifest == nil {
			return fmt.Errorf("%w: raid6 meta without manifest", ErrBadMeta)
		}
		if err := m.Manifest.Validate(); err != nil {
			return err
		}
		if m.Manifest.BlockSize != m.BlockSize {
			return fmt.Errorf("%w: manifest block size %d vs meta %d",
				ErrBadMeta, m.Manifest.BlockSize, m.BlockSize)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadMeta, m.Kind)
	}
	return nil
}

// metaMu serializes meta.json read-modify-writes within the process: two
// disks failing at once, or a failure racing the migration's flip, must
// not lose each other's update.
var metaMu sync.Mutex

// Save writes meta.json atomically: marshal to a temp file in the same
// directory, fsync it, rename over the target, fsync the directory. A
// crash at any point leaves either the previous meta.json or the new
// one — the rename is the commit point.
func Save(dir string, m Meta) error {
	metaMu.Lock()
	defer metaMu.Unlock()
	return save(dir, m)
}

// save is Save with metaMu held.
func save(dir string, m Meta) error {
	if err := m.Validate(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, MetaFile+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once the rename lands
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, MetaFile)); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return filestore.SyncDir(dir)
}

// Load reads and validates the directory's meta.json. A missing file is
// ErrNoMeta (distinguishable from a corrupt one, which is ErrBadMeta).
func Load(dir string) (Meta, error) {
	blob, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Meta{}, fmt.Errorf("%w: %s", ErrNoMeta, dir)
		}
		return Meta{}, fmt.Errorf("durable: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(blob, &m); err != nil {
		return Meta{}, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	if len(m.Failed) == 0 {
		m.Failed = nil // "failed": [] and an absent key mean the same
	}
	if err := m.Validate(); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// update applies fn to the directory's meta.json and saves the result
// when fn reports a change.
func update(dir string, fn func(*Meta) (bool, error)) error {
	metaMu.Lock()
	defer metaMu.Unlock()
	m, err := Load(dir)
	if err != nil {
		return err
	}
	if changed, err := fn(&m); !changed || err != nil {
		return err
	}
	return save(dir, m)
}

// Flip replaces the directory's identity with next — the migration's
// RAID-5 → RAID-6 commit — keeping the failed-disk set: slot ids do not
// change across the flip, so a disk that failed stays failed. A directory
// holding only an intent log (its disks live elsewhere) gets next as its
// first meta.json.
func Flip(dir string, next Meta) error {
	metaMu.Lock()
	defer metaMu.Unlock()
	cur, err := Load(dir)
	switch {
	case err == nil:
		next.Failed = cur.Failed
	case !errors.Is(err, ErrNoMeta):
		return err
	}
	return save(dir, next)
}

// WALPath returns the directory's intent-log path.
func WALPath(dir string) string { return filepath.Join(dir, WALFile) }

// Backend is the vdisk backend of an array directory: the filestore
// images, plus the two recorder capabilities through which the disks and
// the RAID-6 layer keep meta.json in step with the state reads depend on.
type Backend struct{ *filestore.Backend }

// NewBackend returns the backend of the array directory dir, creating the
// directory if needed.
func NewBackend(dir string) (Backend, error) {
	fb, err := filestore.NewBackend(dir)
	return Backend{fb}, err
}

// RecordFailed adds slot id to (failed) or removes it from (!failed) the
// directory's failed-disk set. It implements vdisk.FailureRecorder.
func (b Backend) RecordFailed(id int, failed bool) error {
	return update(b.Dir(), func(m *Meta) (bool, error) {
		i, has := slices.BinarySearch(m.Failed, id)
		switch {
		case failed && !has:
			m.Failed = slices.Insert(m.Failed, i, id)
		case !failed && has:
			m.Failed = slices.Delete(m.Failed, i, i+1)
			if len(m.Failed) == 0 {
				m.Failed = nil
			}
		default:
			return false, nil
		}
		return true, nil
	})
}

// RecordRotation records a RAID-6's per-stripe parity rotation flag. A
// RAID-5 directory has no rotation to record and refuses it.
func (b Backend) RecordRotation(on bool) error {
	return update(b.Dir(), func(m *Meta) (bool, error) {
		if m.Kind != KindRAID6 {
			return false, fmt.Errorf("durable: %s holds a %s array, which has no parity rotation", b.Dir(), m.Kind)
		}
		if m.Manifest.Rotated == on {
			return false, nil
		}
		m.Manifest.Rotated = on
		return true, nil
	})
}
