package code56

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"code56/internal/durable"
	"code56/internal/vdisk/filestore"
	"code56/internal/wal"
)

// The kill-9/reopen/verify matrix. A golden (uninterrupted) file-backed
// migration counts its durability barriers; then, for every barrier n, a
// child process runs the same migration armed to SIGKILL itself right
// after barrier n. The parent reopens the directory with
// ResumeMigration, completes the conversion, and requires the result to
// be bit-identical to the golden run: same scrub-clean RAID-6, same
// readback, same disk image bytes.
const (
	matrixDisks = 4 // p = 5
	matrixBS    = 512
	matrixRows  = 16 // 4 Code 5-6 stripes
)

// buildMatrixArray creates the file-backed RAID-5 under dir and fills it
// with seeded data; returns the expected data blocks for readback checks.
func buildMatrixArray(t *testing.T, dir string) [][]byte {
	t.Helper()
	a, err := NewRAID5Array(matrixDisks,
		WithBackend("file:"+dir), WithBlockSize(matrixBS))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	blocks := int64(matrixRows) * int64(matrixDisks-1)
	want := make([][]byte, blocks)
	for l := int64(0); l < blocks; l++ {
		b := make([]byte, matrixBS)
		r.Read(b)
		want[l] = b
		if err := a.WriteBlock(l, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Disks().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// startMatrixMigration opens dir's RAID-5 and prepares its journaled
// migration with a 1-stripe checkpoint interval (every barrier exercised).
func startMatrixMigration(t *testing.T, dir string) *OnlineMigrator {
	t.Helper()
	a, err := OpenRAID5Array(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMigrator(a, matrixRows, WithCheckpointInterval(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Journal() == nil {
		t.Fatal("file-backed migration did not auto-attach a journal")
	}
	return m
}

// verifyMatrixResult scrubs and reads back the migrated RAID-6 and
// compares its disk images byte-for-byte against the golden run's.
func verifyMatrixResult(t *testing.T, dir string, r6 *RAID6, want [][]byte, golden map[string][]byte) {
	t.Helper()
	stripes := int64(matrixRows) / int64(matrixDisks)
	for st := int64(0); st < stripes; st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil || !ok {
			t.Fatalf("stripe %d: ok=%v err=%v", st, ok, err)
		}
	}
	rep, err := ScrubArrayMode(context.Background(), r6, stripes, ScrubRepair)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("scrub found damage: %+v", rep)
	}
	buf := make([]byte, matrixBS)
	for l, w := range want {
		if err := r6.ReadBlock(int64(l), buf); err != nil {
			t.Fatalf("readback %d: %v", l, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("readback %d: data mismatch", l)
		}
	}
	if err := r6.Disks().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r6.Disks().Close(); err != nil {
		t.Fatal(err)
	}
	if golden != nil {
		images := readImages(t, dir)
		if len(images) != len(golden) {
			t.Fatalf("image count %d vs golden %d", len(images), len(golden))
		}
		for name, g := range golden {
			if !bytes.Equal(images[name], g) {
				t.Fatalf("%s differs from the golden run", name)
			}
		}
	}
	meta, err := durable.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Kind != durable.KindRAID6 {
		t.Fatalf("meta not flipped: %+v", meta)
	}
}

func readImages(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ids, err := filestore.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ids))
	for _, id := range ids {
		name := filestore.DiskFileName(id)
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// resumeAndFinish reopens a crashed directory and drives the migration to
// completion, whatever crash window the child died in.
func resumeAndFinish(t *testing.T, dir string, want [][]byte, golden map[string][]byte) {
	t.Helper()
	m, err := ResumeMigration(dir, WithCheckpointInterval(1))
	switch {
	case err == nil:
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
		r6, err := m.Result()
		if err != nil {
			t.Fatal(err)
		}
		m.Journal().Close()
		verifyMatrixResult(t, dir, r6, want, golden)
	case errors.Is(err, ErrMigrationComplete):
		// Killed after the final commit: the directory is already a RAID-6.
		r6, err := OpenRAID6Array(dir)
		if err != nil {
			t.Fatal(err)
		}
		verifyMatrixResult(t, dir, r6, want, golden)
	case errors.Is(err, ErrNoMigration):
		// Killed before the begin record became durable: nothing to
		// resume; a fresh migration runs from scratch.
		m := startMatrixMigration(t, dir)
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
		r6, err := m.Result()
		if err != nil {
			t.Fatal(err)
		}
		m.Journal().Close()
		verifyMatrixResult(t, dir, r6, want, golden)
	default:
		t.Fatal(err)
	}
}

// runCrashChild re-execs this test binary as a child that migrates dir
// and SIGKILLs itself at the requested crash point.
func runCrashChild(t *testing.T, dir string, env ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$")
	cmd.Env = append(os.Environ(), append([]string{"C56_CRASH_DIR=" + dir}, env...)...)
	out, err := cmd.CombinedOutput()
	if bytes.Contains(out, []byte("CHILD_ERR")) {
		t.Fatalf("crash child failed before the injected kill:\n%s", out)
	}
	// Expected outcomes: killed by the injector (non-zero exit) or ran
	// past the last barrier and completed (exit 0, CHILD_COMPLETED).
	if err == nil && !bytes.Contains(out, []byte("CHILD_COMPLETED")) {
		t.Fatalf("crash child exited cleanly without completing:\n%s", out)
	}
}

// TestCrashChild is the child half of the matrix: not a test when run
// normally. It resumes (or begins) the directory's migration with the
// crash injector armed from the environment; the injector SIGKILLs the
// process mid-migration.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("C56_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-matrix child; driven by TestMigrationKill9Matrix")
	}
	fail := func(err error) {
		fmt.Printf("CHILD_ERR: %v\n", err)
		os.Exit(3)
	}
	m, err := ResumeMigration(dir, WithCheckpointInterval(1))
	if errors.Is(err, ErrNoMigration) {
		a, aerr := OpenRAID5Array(dir)
		if aerr != nil {
			fail(aerr)
		}
		m, err = NewMigrator(a, matrixRows, WithCheckpointInterval(1))
	}
	if err != nil {
		fail(err)
	}
	cp := &wal.CrashPoints{}
	if v := os.Getenv("C56_CRASH_AFTER"); v != "" {
		n, cerr := strconv.ParseInt(v, 10, 64)
		if cerr != nil {
			fail(cerr)
		}
		cp.FailAfterSync(n)
	}
	if v := os.Getenv("C56_CRASH_TORN"); v != "" {
		k, cerr := strconv.Atoi(v)
		if cerr != nil {
			fail(cerr)
		}
		cp.FailDuringAppend(k)
	}
	m.Journal().SetCrashPoints(cp)
	if err := m.Start(); err != nil {
		fail(err)
	}
	if err := m.Wait(); err != nil {
		fail(err)
	}
	// Only reachable when the armed barrier lies beyond this run's last
	// barrier (or nothing was armed).
	fmt.Println("CHILD_COMPLETED")
	os.Exit(0)
}

// TestMigrationKill9Matrix sweeps a SIGKILL over every durability barrier
// of a file-backed migration and proves each crash resumes to a result
// bit-identical to an uninterrupted run.
func TestMigrationKill9Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one child process per durability barrier")
	}
	// Golden run: uninterrupted, with a disarmed injector counting
	// barriers.
	goldenDir := t.TempDir()
	want := buildMatrixArray(t, goldenDir)
	m := startMatrixMigration(t, goldenDir)
	cp := &wal.CrashPoints{}
	m.Journal().SetCrashPoints(cp)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	r6, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	m.Journal().Close()
	verifyMatrixResult(t, goldenDir, r6, want, nil)
	golden := readImages(t, goldenDir)
	barriers := cp.Hits()
	if barriers < 5 {
		t.Fatalf("golden run hit only %d barriers; matrix would be vacuous", barriers)
	}

	for n := int64(1); n <= barriers; n++ {
		n := n
		t.Run(fmt.Sprintf("barrier-%02d", n), func(t *testing.T) {
			dir := t.TempDir()
			w := buildMatrixArray(t, dir)
			runCrashChild(t, dir, "C56_CRASH_AFTER="+strconv.FormatInt(n, 10))
			resumeAndFinish(t, dir, w, golden)
		})
	}
}

// TestMigrationTornRecordCrashes kills the child MID-APPEND, leaving a
// physically torn record in the intent log; replay must truncate it and
// resume from the last whole record.
func TestMigrationTornRecordCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	// Torn begin record, two tear offsets: the journal replays empty, so
	// recovery is a fresh migration.
	for _, k := range []int{0, 7} {
		t.Run(fmt.Sprintf("torn-begin-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			w := buildMatrixArray(t, dir)
			runCrashChild(t, dir, "C56_CRASH_TORN="+strconv.Itoa(k))
			resumeAndFinish(t, dir, w, nil)
		})
	}
	// Torn watermark mid-run: first child dies cleanly between barriers,
	// second child resumes and tears its first checkpoint append.
	t.Run("torn-watermark", func(t *testing.T) {
		dir := t.TempDir()
		w := buildMatrixArray(t, dir)
		runCrashChild(t, dir, "C56_CRASH_AFTER=4")
		runCrashChild(t, dir, "C56_CRASH_TORN=6")
		resumeAndFinish(t, dir, w, nil)
	})
}
