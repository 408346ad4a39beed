// Durability: a file-backed migration survives kill -9. The arrays built
// by WithBackend("file:<dir>") live in sparse image files with a meta.json
// identity record, and their migrations journal every checkpoint through
// the directory's write-ahead intent log (wal.log). This walkthrough
// proves the whole chain: the parent process builds a durable RAID-5,
// re-execs itself as a child that starts the online RAID-5 → Code 5-6
// conversion and SIGKILLs itself halfway through — no deferred cleanup, no
// flushes, the moral equivalent of a power cut — then the parent reopens
// the directory with ResumeMigration, replays the intent log, finishes the
// conversion from the journaled watermark, and verifies the result
// block-for-block against what it originally wrote — once live, and once
// more after reopening the committed directory with OpenRAID6Array.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"time"

	code56 "code56"
)

const (
	disks   = 4 // p = 5
	block   = 1024
	stripes = 48
	rows    = stripes * disks // p-1 = 4 rows per Code 5-6 stripe
	blocks  = rows * (disks - 1)
	seed    = 11
)

func main() {
	if dir := os.Getenv("C56_DURABILITY_DIR"); dir != "" {
		child(dir)
		return
	}
	dir, err := os.MkdirTemp("", "code56-durability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Build a durable RAID-5: block images, meta.json, everything on disk.
	r5, err := code56.NewRAID5Array(disks,
		code56.WithBackend("file:"+dir), code56.WithBlockSize(block))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	want := make([][]byte, blocks)
	for l := int64(0); l < blocks; l++ {
		b := make([]byte, block)
		rng.Read(b)
		want[l] = b
		if err := r5.WriteBlock(l, b); err != nil {
			log.Fatal(err)
		}
	}
	if err := r5.Disks().Sync(); err != nil {
		log.Fatal(err)
	}
	if err := r5.Disks().Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built file-backed RAID-5 in %s: %d disks, %d data blocks\n", dir, disks, blocks)

	// Re-exec as a child that migrates and kills itself mid-conversion.
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "C56_DURABILITY_DIR="+dir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	err = cmd.Run()
	if err == nil {
		log.Fatal("child exited cleanly; it was supposed to die mid-migration")
	}
	fmt.Printf("child died mid-migration (%v) — exactly what we wanted\n", err)

	// Reopen the directory. ResumeMigration replays wal.log (truncating
	// any record torn by the kill), reopens the RAID-5, and hands back a
	// migrator parked at the last durable checkpoint.
	mig, err := code56.ResumeMigration(dir)
	if err != nil {
		log.Fatal(err)
	}
	converted, total := mig.Progress()
	fmt.Printf("resumed from the intent log at stripe %d of %d\n", converted, total)
	if err := mig.Start(); err != nil {
		log.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		log.Fatal(err)
	}
	r6, err := mig.Result()
	if err != nil {
		log.Fatal(err)
	}
	mig.Journal().Close()
	fmt.Printf("conversion finished: %d stripes redone or completed after the crash\n",
		mig.Stats().StripesConverted)

	// Prove the crash cost nothing: every stripe consistent, scrub clean,
	// every data block exactly as written before the child was spawned.
	verify(r6, want)
	if err := r6.Disks().Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: all %d stripes consistent, scrub clean, all %d blocks intact\n",
		stripes, blocks)

	// The committed directory now identifies as a RAID-6; a second resume
	// says so instead of redoing anything.
	if err := r6.Disks().Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := code56.ResumeMigration(dir); !errors.Is(err, code56.ErrMigrationComplete) {
		log.Fatalf("resume after commit: want ErrMigrationComplete, got %v", err)
	}
	fmt.Println("resume after commit correctly reports the migration complete")

	// The directory is the array's one on-disk form: reopen it as the
	// RAID-6 it became and check it again from scratch.
	final, err := code56.OpenRAID6Array(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer final.Disks().Close()
	verify(final, want)
	fmt.Printf("reopened %s as a %s RAID-6 (p=%d): verified again\n",
		dir, final.Code().Name(), final.Code().Geometry().P)
}

// verify requires every stripe consistent, a clean scrub and every data
// block exactly as first written.
func verify(r6 *code56.RAID6, want [][]byte) {
	for st := int64(0); st < stripes; st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil || !ok {
			log.Fatalf("stripe %d inconsistent (err=%v)", st, err)
		}
	}
	rep, err := r6.Scrub(stripes)
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Clean() {
		log.Fatalf("scrub found damage: %+v", rep)
	}
	buf := make([]byte, block)
	for l := int64(0); l < blocks; l++ {
		if err := r6.ReadBlock(l, buf); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, want[l]) {
			log.Fatalf("block %d differs from what was written before the crash", l)
		}
	}
}

// child is the crashing half: it opens the durable RAID-5, starts the
// journaled migration with a tight checkpoint interval and a throttle slow
// enough to catch mid-flight, waits for the halfway mark, and SIGKILLs
// itself. Nothing below the kill ever runs.
func child(dir string) {
	r5, err := code56.OpenRAID5Array(dir)
	if err != nil {
		log.Fatal(err)
	}
	mig, err := code56.NewMigrator(r5, rows,
		code56.WithCheckpointInterval(1), code56.WithThrottle(2*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	if mig.Journal() == nil {
		log.Fatal("file-backed migration did not attach an intent log")
	}
	if err := mig.Start(); err != nil {
		log.Fatal(err)
	}
	for {
		converted, total := mig.Progress()
		if converted >= total/2 {
			fmt.Printf("child: %d of %d stripes converted — pulling the plug (kill -9)\n",
				converted, total)
			p, _ := os.FindProcess(os.Getpid())
			p.Kill()
			select {} // Kill is asynchronous; never get past it.
		}
		time.Sleep(time.Millisecond)
	}
}
