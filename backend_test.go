package code56

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"code56/internal/durable"
)

func TestBackendSpecGrammar(t *testing.T) {
	for _, spec := range []string{"", "mem:", "file:/tmp/x"} {
		s := ApplyOptions(WithBackend(spec))
		if err := s.Err(); err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
		}
	}
	for _, spec := range []string{"file:", "mem", "disk:/x", "s3://bucket"} {
		s := ApplyOptions(WithBackend(spec))
		if err := s.Err(); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	bad := ApplyOptions(WithCheckpointInterval(0))
	if err := bad.Err(); err == nil {
		t.Error("WithCheckpointInterval(0) accepted")
	}
}

// TestPositionalConstructorsStayInMemory pins the compatibility promise:
// the positional constructors and the option forms without WithBackend
// build pure in-memory arrays (no Dir capability on the backend).
func TestPositionalConstructorsStayInMemory(t *testing.T) {
	a, err := NewRAID5Array(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Disks().Backend().(interface{ Dir() string }); ok {
		t.Fatal("default backend is not in-memory")
	}
	m, err := NewMigrator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Journal() != nil {
		t.Fatal("in-memory migration must not be journaled")
	}
}

// TestFileBackedRAID6RoundTrip builds a file-backed RAID-6 of every code,
// with and without parity rotation, closes it and reopens the directory:
// the identity, the rotation and every block must come back.
func TestFileBackedRAID6RoundTrip(t *testing.T) {
	for _, rotated := range []bool{false, true} {
		t.Run(fmt.Sprintf("rotated=%v", rotated), func(t *testing.T) {
			for _, name := range []string{"code56", "code56r", "rdp", "evenodd", "xcode", "pcode", "pcode-p", "hcode", "hdp"} {
				t.Run(name, func(t *testing.T) {
					testFileBackedRAID6RoundTrip(t, name, rotated)
				})
			}
		})
	}
}

func testFileBackedRAID6RoundTrip(t *testing.T, name string, rotated bool) {
	dir := t.TempDir()
	code, err := durable.BuildCode(durable.Manifest{Version: durable.MetaVersion, CodeName: name, P: 5, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewRAID6Array(code, WithBackend("file:"+dir), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetRotation(rotated); err != nil {
		t.Fatal(err)
	}
	const stripes = 4
	want := writeRandomBlocks(t, a.WriteBlock, int64(a.DataPerStripe()*stripes), 512, 3)
	if err := a.Disks().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Close(); err != nil {
		t.Fatal(err)
	}

	// Kind mismatch is caught, with a pointer to the right entry point.
	if _, err := OpenRAID5Array(dir); err == nil {
		t.Fatal("OpenRAID5Array accepted a raid6 directory")
	}

	b, err := OpenRAID6Array(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Disks().Close()
	if b.Code().Name() != name || b.BlockSize() != 512 || b.Rotated() != rotated {
		t.Fatalf("reopened identity: %s/%d rotated=%v", b.Code().Name(), b.BlockSize(), b.Rotated())
	}
	requireBlocks(t, b.ReadBlock, want, "after reopen")
	verifyStripes(t, b, stripes)
	// Survives a double failure after reopen, like any RAID-6.
	b.Disks().Disk(0).Fail()
	b.Disks().Disk(2).Fail()
	requireBlocks(t, b.ReadBlock, want, "degraded after reopen")
}

// TestFileBackedFailedDiskSurvivesReopen fails a disk, writes around it,
// and reopens the directory: the disk must come back failed, so reads
// reconstruct the degraded writes instead of returning its stale image.
// Replace and rebuild then restore full redundancy, and the healthy state
// survives another reopen.
func TestFileBackedFailedDiskSurvivesReopen(t *testing.T) {
	t.Run("raid6", func(t *testing.T) {
		dir := t.TempDir()
		code, _ := New(5)
		a, err := NewRAID6Array(code, WithBackend("file:"+dir), WithBlockSize(512))
		if err != nil {
			t.Fatal(err)
		}
		const stripes, failed = 4, 1
		blocks := int64(a.DataPerStripe() * stripes)
		writeRandomBlocks(t, a.WriteBlock, blocks, 512, 5)
		a.Disks().Disk(failed).Fail()
		want := writeRandomBlocks(t, a.WriteBlock, blocks, 512, 6)
		closeDisks(t, a.Disks())

		b, err := OpenRAID6Array(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Disks().FailedDisks(); len(got) != 1 || got[0] != failed {
			t.Fatalf("reopened with failed disks %v, want [%d]", got, failed)
		}
		requireBlocks(t, b.ReadBlock, want, "degraded after reopen")
		b.Disks().Disk(failed).Replace()
		if err := RebuildArray(context.Background(), b, stripes, []int{failed}); err != nil {
			t.Fatal(err)
		}
		verifyStripes(t, b, stripes)
		closeDisks(t, b.Disks())

		c, err := OpenRAID6Array(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Disks().Close()
		if got := c.Disks().FailedDisks(); len(got) != 0 {
			t.Fatalf("replaced disk reopened failed: %v", got)
		}
		requireBlocks(t, c.ReadBlock, want, "after rebuild and reopen")
		verifyStripes(t, c, stripes)
	})
	t.Run("raid5", func(t *testing.T) {
		dir := t.TempDir()
		a, err := NewRAID5Array(4, WithBackend("file:"+dir), WithBlockSize(512))
		if err != nil {
			t.Fatal(err)
		}
		const rows, failed = 12, 2
		blocks := int64(rows * (a.M() - 1))
		writeRandomBlocks(t, a.WriteBlock, blocks, 512, 7)
		a.Disks().Disk(failed).Fail()
		want := writeRandomBlocks(t, a.WriteBlock, blocks, 512, 8)
		closeDisks(t, a.Disks())

		b, err := OpenRAID5Array(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Disks().FailedDisks(); len(got) != 1 || got[0] != failed {
			t.Fatalf("reopened with failed disks %v, want [%d]", got, failed)
		}
		requireBlocks(t, b.ReadBlock, want, "degraded after reopen")
		b.Disks().Disk(failed).Replace()
		if err := b.Rebuild(failed, rows); err != nil {
			t.Fatal(err)
		}
		for row := int64(0); row < rows; row++ {
			if ok, err := b.VerifyRow(row); err != nil || !ok {
				t.Fatalf("row %d inconsistent after rebuild (err=%v)", row, err)
			}
		}
		closeDisks(t, b.Disks())

		c, err := OpenRAID5Array(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Disks().Close()
		if got := c.Disks().FailedDisks(); len(got) != 0 {
			t.Fatalf("replaced disk reopened failed: %v", got)
		}
		requireBlocks(t, c.ReadBlock, want, "after rebuild and reopen")
	})
}

// writeRandomBlocks writes blocks 0..n-1 with seeded random data and
// returns what it wrote.
func writeRandomBlocks(t *testing.T, write func(int64, []byte) error, n int64, size int, seed int64) [][]byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	want := make([][]byte, n)
	for l := range want {
		want[l] = make([]byte, size)
		r.Read(want[l])
		if err := write(int64(l), want[l]); err != nil {
			t.Fatalf("write block %d: %v", l, err)
		}
	}
	return want
}

// requireBlocks reads every block back and requires the expected bytes.
func requireBlocks(t *testing.T, read func(int64, []byte) error, want [][]byte, when string) {
	t.Helper()
	buf := make([]byte, len(want[0]))
	wrong := 0
	for l, w := range want {
		if err := read(int64(l), buf); err != nil {
			t.Fatalf("%s: read block %d: %v", when, l, err)
		}
		if !bytes.Equal(buf, w) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%s: %d of %d blocks read back wrong", when, wrong, len(want))
	}
}

func verifyStripes(t *testing.T, a *RAID6, stripes int64) {
	t.Helper()
	for st := int64(0); st < stripes; st++ {
		if ok, err := a.VerifyStripe(st); err != nil || !ok {
			t.Fatalf("stripe %d inconsistent (err=%v)", st, err)
		}
	}
}

// closeDisks syncs the healthy disks and closes the array.
func closeDisks(t *testing.T, d *DiskArray) {
	t.Helper()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResumeMigrationErrors(t *testing.T) {
	// No meta.json at all.
	if _, err := ResumeMigration(t.TempDir()); !errors.Is(err, durable.ErrNoMeta) {
		t.Fatalf("empty dir: %v", err)
	}
	// A RAID-5 directory that never began a migration.
	dir := t.TempDir()
	a, err := NewRAID5Array(4, WithBackend("file:"+dir), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	a.Disks().Close()
	if _, err := ResumeMigration(dir); !errors.Is(err, ErrNoMigration) {
		t.Fatalf("unbegun dir: %v", err)
	}
	// A RAID-6 directory: migration (or construction) already complete.
	dir6 := t.TempDir()
	code, _ := New(5)
	b, err := NewRAID6Array(code, WithBackend("file:"+dir6), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	b.Disks().Close()
	if _, err := ResumeMigration(dir6); !errors.Is(err, ErrMigrationComplete) {
		t.Fatalf("raid6 dir: %v", err)
	}
	if _, err := OpenRAID6Array(dir); err == nil {
		t.Fatal("OpenRAID6Array accepted a raid5 directory")
	}
}
