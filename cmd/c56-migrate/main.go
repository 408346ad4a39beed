// Command c56-migrate demonstrates the paper's Algorithm 2 end to end on
// simulated disks: it builds a RAID-5, fills it with data, converts it
// online to a Code 5-6 RAID-6 while an application workload keeps reading
// and writing, then verifies every stripe and every data block.
//
// With -online=false it instead replays the offline conversion plan
// through the executor and reports the paper's §V-A cost metrics.
//
// With -backend file:<dir> the array lives in durable sparse image files
// under <dir> and the migration is journaled through the directory's
// intent log; a run killed mid-conversion restarts from its last
// checkpoint with -resume <dir>.
//
// Usage:
//
//	c56-migrate -disks 4 -stripes 256 -block 4096 -workload random
//	c56-migrate -online -metrics - -trace trace.jsonl
//	c56-migrate -backend file:/var/tmp/array -stripes 64
//	c56-migrate -resume /var/tmp/array
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	code56 "code56"
	"code56/internal/obs"
	"code56/internal/telemetry"
	"code56/internal/trace"
)

func main() {
	var (
		disks    = flag.Int("disks", 4, "RAID-5 disks (disks+1 must be prime)")
		stripes  = flag.Int("stripes", 256, "Code 5-6 stripes to migrate (online mode)")
		block    = flag.Int("block", 4096, "block size in bytes")
		workload = flag.String("workload", "random", "application workload during migration: random, sequential, write-heavy, zipf, none")
		ops      = flag.Int("ops", 2000, "application operations during migration")
		seed     = flag.Int64("seed", 1, "workload seed")
		throttle = flag.Duration("throttle", 0, "pause between converted stripes (e.g. 5ms)")
		parallel = flag.Int("parallel", 1, "concurrent stripe-conversion workers (alias of -workers)")
		workers  = flag.Int("workers", 0, "worker goroutines for conversion (online) or plan execution (offline); 0 = -parallel")
		online   = flag.Bool("online", true, "convert online with Algorithm 2; false replays the offline plan via the executor")
		progress = flag.Bool("progress", true, "show a live progress line on stderr during online migration")
		watch    = flag.Bool("watch", false, "rich live status line: state, watermark, recent stripes/s, MB/s, repairs, ETA")
		backend  = flag.String("backend", "", "block-store backend spec: 'mem:' (default) or 'file:<dir>' for durable image files plus a crash-resumable migration intent log")
		resume   = flag.String("resume", "", "resume the parked file-backed migration in this directory (ignores the array-shape flags)")
		interval = flag.Int64("checkpoint", 0, "stripes between intent-log checkpoints for file-backed migrations (0 = default, 16)")

		latent    = flag.Float64("latent", 0, "per-read probability of discovering a latent sector error (online mode; above ~0.005 double faults within a row become likely, which genuinely exceeds the RAID-5 phase's tolerance)")
		transient = flag.Float64("transient-prob", 0, "per-I/O probability of a transient error (online mode)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault injector")
		retry     = flag.Int("retry", 0, "retries for transient I/O errors")
		retryBase = flag.Duration("retry-base", 0, "backoff base between retries (doubles each attempt)")
	)
	cli := obs.Flags(flag.CommandLine, true)
	flag.Lookup("http").Usage = "serve the observability plane (/metrics, /healthz, /progress, /debug/pprof) on this address, e.g. :8080"
	flag.Parse()
	if *workers == 0 {
		*workers = *parallel
	}
	faults := faultOpts{
		latent:    *latent,
		transient: *transient,
		seed:      *faultSeed,
		retry:     *retry,
		retryBase: *retryBase,
	}
	err := cli.Start()
	if err == nil {
		switch {
		case *resume != "":
			err = runResume(*resume, *workers, *throttle, *interval, *progress, cli.Plane)
		case *online:
			err = runOnline(onlineConfig{
				disks:    *disks,
				stripes:  *stripes,
				block:    *block,
				workload: *workload,
				ops:      *ops,
				seed:     *seed,
				throttle: *throttle,
				workers:  *workers,
				progress: *progress,
				watch:    *watch,
				backend:  *backend,
				interval: *interval,
				faults:   faults,
				plane:    cli.Plane,
			})
		default:
			err = runOffline(*disks, *block, *seed, *workers)
		}
	}
	if err := cli.Finish(err); err != nil {
		fmt.Fprintln(os.Stderr, "c56-migrate:", err)
		os.Exit(1)
	}
}

// faultOpts carries the -latent/-transient-prob/-retry flags.
type faultOpts struct {
	latent, transient float64
	seed              int64
	retry             int
	retryBase         time.Duration
}

func (f faultOpts) armed() bool { return f.latent > 0 || f.transient > 0 }

// onlineConfig carries runOnline's flags plus the observability plane the
// run registers its array and migrator with (nil when -http is unset — the
// registrations are then no-ops).
type onlineConfig struct {
	disks, stripes, block int
	workload              string
	ops                   int
	seed                  int64
	throttle              time.Duration
	workers               int
	progress, watch       bool
	backend               string
	interval              int64
	faults                faultOpts
	plane                 *obs.Server
}

func runOnline(cfg onlineConfig) error {
	disks, stripes, block := cfg.disks, cfg.stripes, cfg.block
	faults := cfg.faults
	p := disks + 1
	rows := int64(stripes) * int64(p-1)
	blocks := rows * int64(disks-1)

	r5, err := code56.NewRAID5Array(disks,
		code56.WithBackend(cfg.backend),
		code56.WithBlockSize(block),
		code56.WithLayout(code56.LeftAsymmetric))
	if err != nil {
		return err
	}
	cfg.plane.RegisterHealth("vdisk", obs.ArrayHealth(r5.Disks()))
	fmt.Printf("filling RAID-5: %d disks, %d rows, %d data blocks of %d B\n", disks, rows, blocks, block)
	rng := rand.New(rand.NewSource(cfg.seed))
	want := make([][]byte, blocks)
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, block)
		rng.Read(b)
		want[L] = b
		if err := r5.WriteBlock(L, b); err != nil {
			return err
		}
	}

	if faults.retry > 0 || faults.retryBase > 0 {
		if err := r5.Disks().SetRetry(faults.retry, faults.retryBase); err != nil {
			return err
		}
	}
	if faults.armed() {
		err := r5.Disks().SetFaults(code56.FaultConfig{
			Seed:               faults.seed,
			ReadTransientProb:  faults.transient,
			WriteTransientProb: faults.transient,
			LatentProb:         faults.latent,
		})
		if err != nil {
			return err
		}
		fmt.Printf("fault injector armed: latent %.3g, transient %.3g, seed %d, retry %d @ %v\n",
			faults.latent, faults.transient, faults.seed, faults.retry, faults.retryBase)
	}

	migOpts := []code56.Option{}
	if cfg.interval > 0 {
		migOpts = append(migOpts, code56.WithCheckpointInterval(cfg.interval))
	}
	mig, err := code56.NewMigrator(r5, rows, migOpts...)
	if err != nil {
		return err
	}
	if j := mig.Journal(); j != nil {
		fmt.Printf("durable backend %q: migration journaled through %s (resume a killed run with -resume)\n",
			cfg.backend, j.Dir())
		defer j.Close()
	}
	cfg.plane.RegisterHealth("migrate", obs.MigratorHealth(mig))
	cfg.plane.RegisterProgress("r5tor6", mig)
	if cfg.throttle > 0 {
		mig.SetThrottle(cfg.throttle)
	}
	if cfg.workers > 1 {
		if err := mig.SetParallelism(cfg.workers); err != nil {
			return err
		}
	}
	var kind trace.WorkloadKind
	runApp := true
	switch cfg.workload {
	case "random":
		kind = trace.RandomRW
	case "sequential":
		kind = trace.SequentialRead
	case "write-heavy":
		kind = trace.WriteHeavy
	case "zipf":
		kind = trace.ZipfRW
	case "none":
		runApp = false
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}

	r5.Disks().ResetStats()
	// Counter baseline: the default registry is process-wide and the fill
	// phase above already moved it, so report deltas from here.
	base := telemetry.Default().Snapshot().Counters
	start := time.Now()
	if err := mig.Start(); err != nil {
		return err
	}

	stopProgress := make(chan struct{})
	var progWG sync.WaitGroup
	if cfg.progress || cfg.watch {
		// Bytes of application data one converted stripe carries, for the
		// watch line's MB/s (derived from the same stripe-rate EWMA the
		// /progress endpoint serves).
		stripeBytes := float64((p - 1) * (disks - 1) * block)
		progWG.Add(1)
		go func() {
			defer progWG.Done()
			tick := time.NewTicker(150 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					fmt.Fprintf(os.Stderr, "\r%110s\r", "")
					return
				case <-tick.C:
					pr := mig.ProgressSnapshot()
					if cfg.watch {
						fmt.Fprintf(os.Stderr, "\r%-8s %5.1f%% (%d/%d stripes) %7.0f stripes/s %7.1f MB/s  repairs %d  ETA %-12s",
							pr.State(), 100*pr.Fraction(), pr.Converted, pr.Total,
							pr.RecentStripesPerSec, pr.RecentStripesPerSec*stripeBytes/1e6,
							pr.Stats.FaultsRepaired, pr.ETA.Truncate(time.Millisecond))
					} else {
						fmt.Fprintf(os.Stderr, "\rmigrating: %5.1f%% (%d/%d stripes) %8.0f stripes/s ETA %-12s",
							100*pr.Fraction(), pr.Converted, pr.Total, pr.StripesPerSec,
							pr.ETA.Truncate(time.Millisecond))
					}
				}
			}
		}()
	}

	appOps := 0
	if runApp {
		var mu sync.Mutex
		buf := make([]byte, block)
		for _, op := range trace.Workload(kind, blocks, cfg.ops, cfg.seed+1) {
			if op.Write {
				b := make([]byte, block)
				rng.Read(b)
				mu.Lock()
				if err := mig.Write(op.Logical, b); err != nil {
					mu.Unlock()
					return err
				}
				want[op.Logical] = b
				mu.Unlock()
			} else if err := mig.Read(op.Logical, buf); err != nil {
				return err
			}
			appOps++
		}
	}

	err = mig.Wait()
	close(stopProgress)
	progWG.Wait()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	converted, total := mig.Progress()
	st := mig.Stats()
	fmt.Printf("conversion done: %d/%d stripes in %v, %d concurrent app ops\n", converted, total, elapsed, appOps)
	fmt.Printf("interaction: %d write interrupts, %d diagonal updates, %d stripes redone after races\n",
		st.WriteInterrupts, st.DiagonalUpdates, st.StripesRedone)

	r6, err := mig.Result()
	if err != nil {
		return err
	}
	if faults.armed() {
		// Quiesce the injector, then scrub-repair whatever latent errors the
		// workload discovered but the conversion didn't walk over, so the
		// verification below checks data integrity rather than injector luck.
		if err := r5.Disks().SetFaults(code56.FaultConfig{}); err != nil {
			return err
		}
		rep, err := code56.ScrubArrayMode(context.Background(), r6, int64(stripes), code56.ScrubRepair)
		if err != nil {
			return err
		}
		fmt.Printf("faults: %d bad blocks repaired during conversion, %d latent repaired by scrub, %d silent corruptions, %d unrecoverable stripes\n",
			st.FaultsRepaired, rep.LatentRepaired, rep.CorruptRepaired, len(rep.Unrecoverable))
		if len(rep.Unrecoverable) > 0 {
			return fmt.Errorf("scrub left unrecoverable stripes: %v", rep.Unrecoverable)
		}
	}
	for st := int64(0); st < int64(stripes); st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("stripe %d inconsistent", st)
		}
	}
	buf := make([]byte, block)
	for L := int64(0); L < blocks; L++ {
		if err := mig.Read(L, buf); err != nil {
			return err
		}
		if !equal(buf, want[L]) {
			return fmt.Errorf("block %d corrupted", L)
		}
	}
	fmt.Printf("verified: all %d stripes consistent, all %d data blocks intact\n", stripes, blocks)
	if err := r6.Disks().Sync(); err != nil {
		return err
	}

	var reads, writes int64
	for i := 0; i < r5.Disks().Len(); i++ {
		s := r5.Disks().Disk(i).Stats()
		fmt.Printf("  disk %d: %6d reads %6d writes\n", i, s.Reads, s.Writes)
		reads += s.Reads
		writes += s.Writes
	}
	fmt.Printf("total I/O during migration+workload: %d reads, %d writes\n", reads, writes)
	if err := reportCounters(disks, st, base); err != nil {
		return err
	}
	return nil
}

// runResume restarts a parked file-backed migration: it replays the
// directory's intent log, reopens the RAID-5, resumes the conversion at
// the journaled watermark, and verifies the finished RAID-6 with a full
// scrub. A directory whose migration already committed is reported as
// complete (after the same scrub); a directory that never began one is an
// error — start it with -backend file:<dir>.
func runResume(dir string, workers int, throttle time.Duration, interval int64, progress bool, plane *obs.Server) error {
	opts := []code56.Option{}
	if workers > 1 {
		opts = append(opts, code56.WithWorkers(workers))
	}
	if throttle > 0 {
		opts = append(opts, code56.WithThrottle(throttle))
	}
	if interval > 0 {
		opts = append(opts, code56.WithCheckpointInterval(interval))
	}
	mig, err := code56.ResumeMigration(dir, opts...)
	if err != nil {
		if errors.Is(err, code56.ErrMigrationComplete) {
			fmt.Printf("%s: migration already committed; verifying the RAID-6\n", dir)
			r6, err := code56.OpenRAID6Array(dir)
			if err != nil {
				return err
			}
			defer r6.Disks().Close()
			return scrubResumed(r6)
		}
		return err
	}
	defer mig.Journal().Close()
	converted, total := mig.Progress()
	fmt.Printf("%s: resuming at stripe %d of %d\n", dir, converted, total)
	plane.RegisterHealth("migrate", obs.MigratorHealth(mig))
	plane.RegisterProgress("r5tor6", mig)
	start := time.Now()
	if err := mig.Start(); err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if progress {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(150 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					fmt.Fprintf(os.Stderr, "\r%110s\r", "")
					return
				case <-tick.C:
					pr := mig.ProgressSnapshot()
					fmt.Fprintf(os.Stderr, "\rmigrating: %5.1f%% (%d/%d stripes) ETA %-12s",
						100*pr.Fraction(), pr.Converted, pr.Total, pr.ETA.Truncate(time.Millisecond))
				}
			}
		}()
	}
	err = mig.Wait()
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	converted, total = mig.Progress()
	fmt.Printf("conversion done: %d/%d stripes (%d redone this run) in %v\n",
		converted, total, mig.Stats().StripesConverted, time.Since(start))
	r6, err := mig.Result()
	if err != nil {
		return err
	}
	defer r6.Disks().Close()
	return scrubResumed(r6)
}

// scrubResumed proves a resumed (or already-committed) conversion left a
// consistent array: every stripe verifies and a check-only scrub is clean.
func scrubResumed(r6 *code56.RAID6) error {
	// The stripe count isn't journaled once the migration commits; recover
	// it from the disks' high-water marks (every used row is a written
	// parity row, so the tallest disk bounds the stripe range exactly).
	g := r6.Code().Geometry()
	bs := int64(r6.BlockSize())
	var rows int64
	for i := 0; i < r6.Disks().Len(); i++ {
		sz, err := r6.Disks().Disk(i).Store().Size()
		if err != nil {
			return err
		}
		if n := (sz + bs - 1) / bs; n > rows {
			rows = n
		}
	}
	stripes := rows / int64(g.Rows)
	for st := int64(0); st < stripes; st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("stripe %d inconsistent after resume", st)
		}
	}
	rep, err := code56.ScrubArrayMode(context.Background(), r6, stripes, code56.ScrubCheck)
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("scrub found damage after resume: %+v", rep)
	}
	if err := r6.Disks().Sync(); err != nil {
		return err
	}
	fmt.Printf("verified: all %d stripes consistent, scrub clean\n", stripes)
	return nil
}

// reportCounters prints the migration's telemetry counters and cross-checks
// the conversion XOR tally against the offline plan's aggregate: every
// converted stripe (including redos) costs Plan.XORs / Plan.Period XORs.
func reportCounters(disks int, st code56.MigrationStats, base map[string]int64) error {
	plan, err := code56.NewVirtualPlan(disks, code56.LeftAsymmetric)
	if err != nil {
		return err
	}
	c := telemetry.Default().Snapshot().Counters
	delta := func(name string) int64 { return c[name] - base[name] }
	expected := st.StripesConverted * int64(plan.XORs/plan.Period)
	fmt.Printf("telemetry: %d stripes converted, %d app reads, %d app writes, %d conversion XORs (plan predicts %d)\n",
		delta("migrate.stripes_converted"), delta("migrate.app_reads"), delta("migrate.app_writes"),
		delta("migrate.conversion_xors"), expected)
	if got := delta("migrate.conversion_xors"); got != expected {
		return fmt.Errorf("conversion XOR counter %d does not match the plan's %d", got, expected)
	}
	return nil
}

func runOffline(disks, block int, seed int64, workers int) error {
	plan, err := code56.NewVirtualPlan(disks, code56.LeftAsymmetric)
	if err != nil {
		return err
	}
	fmt.Printf("offline plan %s: %d stripes/period, %d data blocks, %d ops (%d reuse, %d invalidate, %d migrate, %d generate)\n",
		plan.Conv.Label(), plan.Period, plan.DataBlocks, len(plan.Ops),
		plan.Reused, plan.Invalidated, plan.Migrated, plan.Generated)
	base := telemetry.Default().Snapshot().Counters
	ex := code56.NewExecutor(plan, block, seed)
	fmt.Printf("executing with %d workers\n", workers)
	if err := code56.RunPlan(context.Background(), ex, code56.WithWorkers(workers)); err != nil {
		return err
	}
	if err := ex.VerifyResult(); err != nil {
		return err
	}
	fmt.Printf("verified: all %d stripes consistent, all data blocks intact\n", plan.Period)
	m := plan.Metrics()
	fmt.Printf("metrics (per data block): %.4f XORs, %.4f reads, %.4f writes, %.4f total I/O\n",
		m.XORRatio, m.ReadRatio, m.WriteRatio, m.TotalIORatio)
	c := telemetry.Default().Snapshot().Counters
	delta := func(name string) int64 { return c[name] - base[name] }
	fmt.Printf("telemetry: %d reads, %d writes, %d XORs (plan: %d reads, %d writes, %d XORs)\n",
		delta("migrate.exec.reads"), delta("migrate.exec.writes"), delta("migrate.exec.xors"),
		plan.TotalReads(), plan.TotalWrites(), plan.XORs)
	if delta("migrate.exec.reads") != int64(plan.TotalReads()) ||
		delta("migrate.exec.writes") != int64(plan.TotalWrites()) ||
		delta("migrate.exec.xors") != int64(plan.XORs) {
		return fmt.Errorf("executor counters diverge from the plan's aggregates")
	}
	return nil
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
