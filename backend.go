package code56

import (
	"fmt"
	"sort"
	"strings"

	"code56/internal/durable"
	"code56/internal/migrate"
	"code56/internal/raid5"
	"code56/internal/raid6"
	"code56/internal/vdisk"
	"code56/internal/vdisk/filestore"
)

// Durable backends. An array built with WithBackend("file:<dir>") keeps
// its blocks in sparse image files under <dir>, one per disk, beside two
// bookkeeping files:
//
//	meta.json  the directory's identity (kind, geometry, layout/code,
//	           parity rotation, failed disks), replaced atomically — a
//	           migration's final commit flips it from RAID-5 to RAID-6 in
//	           one rename
//	wal.log    the migration intent log (internal/wal): begin, watermark
//	           checkpoints, finish, meta-done
//
// This directory is the one on-disk form of an array; a closed directory
// copied elsewhere is a snapshot. The reopen entry points below need
// nothing but the directory: geometry, rotation and failed disks come
// from meta.json, the on-media disk set from scanning the image files,
// and in-flight migration state from replaying wal.log.

// BlockStore is the pluggable storage seam a simulated disk reads and
// writes through; Backend mints one store per disk slot. Implement these
// to put vdisk arrays on a custom medium (the built-ins are the in-memory
// store and the sparse-file store of WithBackend).
type (
	BlockStore = vdisk.BlockStore
	Backend    = vdisk.Backend
)

// MigrationJournal is a directory's migration intent log, attached to an
// OnlineMigrator (automatically by NewMigrator for file-backed arrays, or
// by ResumeMigration). See OnlineMigrator.Journal.
type MigrationJournal = migrate.Journal

// Durability sentinels, matchable with errors.Is.
var (
	// ErrNoMigration: the directory's intent log records no begun
	// migration to resume.
	ErrNoMigration = migrate.ErrNoMigration
	// ErrMigrationComplete: the directory already completed its
	// migration; open it with OpenRAID6Array.
	ErrMigrationComplete = migrate.ErrMigrationComplete
)

// splitBackendSpec validates and splits a WithBackend spec.
func splitBackendSpec(spec string) (kind, dir string, err error) {
	switch {
	case spec == "" || spec == "mem:":
		return "mem", "", nil
	case strings.HasPrefix(spec, "file:"):
		dir = strings.TrimPrefix(spec, "file:")
		if dir == "" {
			return "", "", fmt.Errorf("code56: WithBackend(%q): file backend needs a directory (file:<dir>)", spec)
		}
		return "file", dir, nil
	default:
		return "", "", fmt.Errorf("code56: WithBackend(%q): unknown backend spec (want \"mem:\" or \"file:<dir>\")", spec)
	}
}

// openBackend resolves the settings' backend spec to a vdisk backend and,
// for file backends, the array directory.
func (s *Settings) openBackend() (vdisk.Backend, string, error) {
	kind, dir, err := splitBackendSpec(s.Backend)
	if err != nil {
		return nil, "", err
	}
	if kind == "mem" {
		return vdisk.MemBackend{}, "", nil
	}
	b, err := durable.NewBackend(dir)
	if err != nil {
		return nil, "", err
	}
	return b, dir, nil
}

// newRAID5Backend builds a fresh RAID-5 on the settings' backend, writing
// the directory's meta.json for file backends.
func newRAID5Backend(m int, s Settings) (*RAID5, error) {
	backend, dir, err := s.openBackend()
	if err != nil {
		return nil, err
	}
	disks, err := vdisk.NewArrayBackend(m, s.BlockSize, backend)
	if err != nil {
		return nil, err
	}
	a, err := raid5.Wrap(disks, m, s.Layout)
	if err != nil {
		disks.Close()
		return nil, err
	}
	if dir != "" {
		err := durable.Save(dir, durable.Meta{
			Version:   durable.MetaVersion,
			Kind:      durable.KindRAID5,
			BlockSize: s.BlockSize,
			Disks:     m,
			Layout:    s.Layout.String(),
		})
		if err != nil {
			disks.Close()
			return nil, err
		}
	}
	return a, nil
}

// newRAID6Backend builds a fresh RAID-6 on the settings' backend, writing
// the directory's meta.json for file backends.
func newRAID6Backend(code Code, s Settings) (*RAID6, error) {
	backend, dir, err := s.openBackend()
	if err != nil {
		return nil, err
	}
	cols := code.Geometry().Cols
	disks, err := vdisk.NewArrayBackend(cols, s.BlockSize, backend)
	if err != nil {
		return nil, err
	}
	a, err := raid6.Wrap(code, disks)
	if err != nil {
		disks.Close()
		return nil, err
	}
	if dir != "" {
		if err := durable.Save(dir, durable.RAID6Meta(code, s.BlockSize, 0)); err != nil {
			disks.Close()
			return nil, err
		}
	}
	return a, nil
}

// dirBackend is the capability an array's backend exposes when its disks
// live in a directory (satisfied by the filestore backend).
type dirBackend interface{ Dir() string }

// attachJournalIfDurable wires a migrator to its array directory's intent
// log when the array is file-backed; in-memory migrations stay unjournaled.
func attachJournalIfDurable(m *OnlineMigrator, a *RAID5, s Settings) error {
	db, ok := a.Disks().Backend().(dirBackend)
	if !ok {
		return nil
	}
	j, err := migrate.OpenJournal(db.Dir())
	if err != nil {
		return err
	}
	if s.CheckpointInterval > 0 {
		if err := j.SetCheckpointInterval(s.CheckpointInterval); err != nil {
			j.Close()
			return err
		}
	}
	if err := m.AttachJournal(j); err != nil {
		j.Close()
		return err
	}
	return nil
}

// openFileDisks scans dir for disk images and assembles them into a vdisk
// array, checking the on-media set covers the meta's disk count. extra
// images beyond it (a mid-migration diagonal-parity disk) are included —
// WrapRAID5 ignores trailing disks and a resumed migration expects its
// added disk to still be there. Disks the meta records as failed reopen
// fail-stopped.
func openFileDisks(dir string, meta durable.Meta) (*vdisk.Array, error) {
	b, err := durable.NewBackend(dir)
	if err != nil {
		return nil, err
	}
	ids, err := filestore.Scan(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		// A directory with a meta.json but no images yet: mint the full
		// disk set (covers metadata written ahead of first write).
		for i := 0; i < meta.Disks; i++ {
			ids = append(ids, i)
		}
	}
	if len(ids) < meta.Disks {
		return nil, fmt.Errorf("code56: %s: %d disk images on media, meta.json expects %d", dir, len(ids), meta.Disks)
	}
	if !sort.IntsAreSorted(ids) || ids[0] != 0 || ids[len(ids)-1] != len(ids)-1 {
		return nil, fmt.Errorf("code56: %s: disk images are not a contiguous 0-based set: %v", dir, ids)
	}
	disks, err := vdisk.NewArrayFrom(meta.BlockSize, b, ids)
	if err != nil {
		return nil, err
	}
	for _, id := range meta.Failed {
		if id >= len(ids) {
			disks.Close()
			return nil, fmt.Errorf("code56: %s: meta.json records failed disk %d, which has no image", dir, id)
		}
		disks.Disk(id).Fail()
	}
	return disks, nil
}

// OpenRAID5Array reopens a file-backed RAID-5 previously created with
// NewRAID5Array(WithBackend("file:<dir>")): geometry and layout come from
// the directory's meta.json, contents from the disk images. WithFaults
// and WithRetry apply to the reopened disks; a directory whose meta says
// RAID-6 is an error (use OpenRAID6Array).
func OpenRAID5Array(dir string, opts ...Option) (*RAID5, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return nil, err
	}
	meta, err := durable.Load(dir)
	if err != nil {
		return nil, err
	}
	if meta.Kind != durable.KindRAID5 {
		return nil, fmt.Errorf("code56: %s holds a %s array (use OpenRAID6Array)", dir, meta.Kind)
	}
	lay, err := durable.ParseLayout(meta.Layout)
	if err != nil {
		return nil, err
	}
	disks, err := openFileDisks(dir, meta)
	if err != nil {
		return nil, err
	}
	a, err := raid5.Wrap(disks, meta.Disks, lay)
	if err != nil {
		disks.Close()
		return nil, err
	}
	if err := s.applyDiskPolicies(disks); err != nil {
		disks.Close()
		return nil, err
	}
	return a, nil
}

// OpenRAID6Array reopens a file-backed RAID-6 — one created with
// NewRAID6Array(WithBackend("file:<dir>")), or a directory whose
// migration completed (the meta flip made it a RAID-6). The erasure code
// is rebuilt from the meta's manifest.
func OpenRAID6Array(dir string, opts ...Option) (*RAID6, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return nil, err
	}
	meta, err := durable.Load(dir)
	if err != nil {
		return nil, err
	}
	if meta.Kind != durable.KindRAID6 {
		return nil, fmt.Errorf("code56: %s holds a %s array (use OpenRAID5Array)", dir, meta.Kind)
	}
	code, err := durable.BuildCode(*meta.Manifest)
	if err != nil {
		return nil, err
	}
	disks, err := openFileDisks(dir, meta)
	if err != nil {
		return nil, err
	}
	a, err := raid6.Wrap(code, disks)
	if err != nil {
		disks.Close()
		return nil, err
	}
	if err := a.SetRotation(meta.Manifest.Rotated); err != nil {
		disks.Close()
		return nil, err
	}
	if err := s.applyDiskPolicies(disks); err != nil {
		disks.Close()
		return nil, err
	}
	return a, nil
}

// ResumeMigration reopens a file-backed array directory whose online
// migration was interrupted — killed, crashed, or cancelled — and
// prepares a migrator that continues it. The intent log is replayed
// (repairing any torn tail), the conversion resumes from the last durable
// watermark, and stripes converted after that watermark are simply redone
// (diagonal-parity conversion is idempotent). Start it like a fresh
// migration (Start / StartMigration), Wait, then Result.
//
// A directory that never began a migration returns ErrNoMigration; one
// whose migration fully committed returns ErrMigrationComplete (the array
// is a RAID-6 — open it with OpenRAID6Array). A migration that died
// between its last conversion barrier and the meta flip resumes
// trivially: the migrator finds nothing left to convert and redoes the
// idempotent commit sequence.
//
// WithWorkers, WithThrottle and WithCheckpointInterval apply to the
// resumed conversion; WithFaults and WithRetry to the reopened disks.
func ResumeMigration(dir string, opts ...Option) (*OnlineMigrator, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return nil, err
	}
	meta, err := durable.Load(dir)
	if err != nil {
		return nil, err
	}
	if meta.Kind == durable.KindRAID6 {
		return nil, fmt.Errorf("%w: %s", ErrMigrationComplete, dir)
	}
	j, err := migrate.OpenJournal(dir)
	if err != nil {
		return nil, err
	}
	st := j.State()
	switch {
	case !st.Begun:
		j.Close()
		return nil, fmt.Errorf("%w: %s", ErrNoMigration, dir)
	case st.MetaFlipped:
		j.Close()
		return nil, fmt.Errorf("%w: %s", ErrMigrationComplete, dir)
	}
	if st.Begin.BlockSize != meta.BlockSize {
		j.Close()
		return nil, fmt.Errorf("code56: %s: intent log block size %d vs meta.json %d", dir, st.Begin.BlockSize, meta.BlockSize)
	}
	a, err := OpenRAID5Array(dir, opts...)
	if err != nil {
		j.Close()
		return nil, err
	}
	closeAll := func() {
		a.Disks().Close()
		j.Close()
	}
	m, err := NewOnlineMigrator(a, st.Begin.Rows)
	if err != nil {
		closeAll()
		return nil, err
	}
	if s.Workers > 0 {
		if err := m.SetParallelism(s.Workers); err != nil {
			closeAll()
			return nil, err
		}
	}
	if s.Throttle > 0 {
		m.SetThrottle(s.Throttle)
	}
	if s.CheckpointInterval > 0 {
		if err := j.SetCheckpointInterval(s.CheckpointInterval); err != nil {
			closeAll()
			return nil, err
		}
	}
	if err := m.ResumeFrom(st.Cursor); err != nil {
		closeAll()
		return nil, err
	}
	if err := m.AttachJournal(j); err != nil {
		closeAll()
		return nil, err
	}
	return m, nil
}
