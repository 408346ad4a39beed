package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	code56 "code56"
	"code56/internal/durable"
	"code56/internal/migrate"
	"code56/internal/raid5"
	"code56/internal/raid6"
	"code56/internal/serve"
	"code56/internal/telemetry"
)

// migrateOnlineParams sizes the migrate-online workload: an in-memory
// RAID-5 converted online to Code 5-6 while an open loop of requests is
// served through the migrator. The conversion's intent log is a file.
// The disks are in memory because on file: disks the run-to-run spread
// of every foreground latency quantile followed the host's page-cache
// writeback and fsync times, not the program (see METRICS.md).
type migrateOnlineParams struct {
	Disks     int   // RAID-5 disks; the Code 5-6 prime is Disks+1
	BlockSize int   // also the request size
	Stripes   int64 // Code 5-6 stripes; each holds Disks RAID-5 rows
	Conns     int
	Rate      float64 // offered requests per second
	ReadShare float64
	// Probe is the timed requests per conversion made while it is paused
	// halfway, after ProbeWarmup untimed ones; their latencies are the
	// gated p50s.
	Probe       int
	ProbeWarmup int
	Setups      int
	// Checkpoint is the journal's checkpoint interval in stripes: the
	// migration's flush policy, which must be the same on both sides of a
	// comparison.
	Checkpoint int64
	MaxCycles  int // conversions in one run
}

var migrateOnlineFull = migrateOnlineParams{
	Disks: 4, BlockSize: 4096, Stripes: 16384, Conns: 2, Rate: 1000, ReadShare: 0.7, Probe: 3000, ProbeWarmup: 1000, Setups: 3,
	Checkpoint: 4096, MaxCycles: 64,
}

// writeRec is one acknowledged foreground write.
type writeRec struct {
	writer     uint64
	seq        uint64
	start, end time.Time
}

// writeLog keeps every acknowledged write per block, so the final
// read-back can tell which contents each block may legitimately hold.
type writeLog struct {
	mu sync.Mutex
	m  map[int64][]writeRec
}

func (w *writeLog) add(block int64, r writeRec) {
	w.mu.Lock()
	w.m[block] = append(w.m[block], r)
	w.mu.Unlock()
}

// allowed reports whether the write (writer, seq) may be the block's final
// content: it is the write that completed last, or one that overlapped it.
func allowed(recs []writeRec, writer, seq uint64) bool {
	last := recs[0]
	for _, r := range recs[1:] {
		if r.end.After(last.end) {
			last = r
		}
	}
	for _, r := range recs {
		if r.writer == writer && r.seq == seq && (r == last || r.end.After(last.start)) {
			return true
		}
	}
	return false
}

// fillRAID5 creates an in-memory RAID-5 and fills every data block with
// setup stamps through WriteBlock. fillUS, when set, gets each
// WriteBlock's duration.
func fillRAID5(p migrateOnlineParams, seed int64, fillUS *samples) (*raid5.Array, error) {
	r5, err := code56.NewRAID5Array(p.Disks,
		code56.WithBackend("mem:"), code56.WithBlockSize(p.BlockSize), code56.WithLayout(code56.LeftAsymmetric))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, p.BlockSize)
	blocks := p.Stripes * int64(p.Disks) * int64(p.Disks-1)
	for b := int64(0); b < blocks; b++ {
		stamp(buf, seed, b, setupWriter, 0)
		t0 := time.Now()
		if err := r5.WriteBlock(b, buf); err != nil {
			r5.Disks().Close()
			return nil, fmt.Errorf("fill block %d: %w", b, err)
		}
		if fillUS != nil {
			fillUS.add(micros(time.Since(t0)))
		}
	}
	return r5, nil
}

// migrateCycle is one online conversion.
type migrateCycle struct {
	convertS float64
	win      *window
	stats    migrate.MigrationStats
	syncs    int64
}

// runMigrateOnline fills the RAID-5 (Setups times, reporting the median
// set-up time), then converts the last fill once per cycle until the
// conversions have taken --seconds. Each conversion is journaled in a work
// directory, checkpointing every p.Checkpoint stripes. A cycle after the
// first converts the same RAID-5 again: the previous cycle's finished
// journal is removed, and the diagonal-parity disk stays attached, so the
// new conversion rewrites it in place instead of adding a new disk.
func runMigrateOnline(rc *runCtx, p migrateOnlineParams) (*outcome, error) {
	rows := p.Stripes * int64(p.Disks)
	blocks := rows * int64(p.Disks-1)
	var fillUS *samples
	if rc.tr != nil {
		fillUS = rc.tr.layer("raid5.write")
	}
	dir, err := os.MkdirTemp(rc.work, "migrate-online-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Each set-up fills a new array; the last one is measured.
	var r5 *raid5.Array
	var setupSecs []float64
	defer func() {
		if r5 != nil {
			r5.Disks().Close()
		}
	}()
	for i := 0; i < p.Setups; i++ {
		if r5 != nil {
			if err := r5.Disks().Close(); err != nil {
				return nil, err
			}
			r5 = nil
		}
		releaseMemory()
		t0 := time.Now()
		if r5, err = fillRAID5(p, rc.seed, fillUS); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	disks := r5.Disks()

	var srv *volumeServer
	var clients []*client
	defer func() {
		for _, c := range clients {
			c.close()
		}
		if srv != nil {
			srv.stop()
		}
	}()
	writes := &writeLog{m: map[int64][]writeRec{}}
	bufs := make([][]byte, p.Conns)
	for i := range bufs {
		bufs[i] = make([]byte, p.BlockSize)
	}
	// Each cycle's generator writes as its own writer, so stamps stay
	// unique across cycles.
	writer := uint64(1)
	do := func(conn int, o op) error {
		buf := bufs[conn]
		req := int64(-1)
		if rc.tr != nil {
			req = rc.tr.nextReq.Add(1)
		}
		if o.write {
			stamp(buf, rc.seed, o.block, writer, o.seq)
		}
		start := time.Now()
		if err := clients[conn].do(o.write, o.block, buf, req); err != nil {
			return err
		}
		end := time.Now()
		if rc.tr != nil {
			rc.tr.wire(req, micros(end.Sub(start)))
		}
		if o.write {
			writes.add(o.block, writeRec{writer: writer, seq: o.seq, start: start, end: end})
			return nil
		}
		_, _, err := checkStamp(buf, rc.seed, o.block)
		return err
	}
	next := func(r *rand.Rand) (bool, int64) { return r.Float64() >= p.ReadShare, r.Int63n(blocks) }

	var cycles []*migrateCycle
	all, probe := &opLog{}, &opLog{}
	var rates, readP50, writeP50, onlineReadP50, onlineWriteP50 []float64
	var measured time.Duration
	var inconsistent int64
	var r6 *raid6.Array
	for c := 0; c < p.MaxCycles && (c == 0 || measured < rc.seconds); c++ {
		if c > 0 {
			// The served requests' garbage is collected between
			// conversions, so the peak resident set does not grow with
			// the number of conversions a run fits in.
			releaseMemory()
			if err := os.Remove(durable.WALPath(dir)); err != nil {
				return nil, err
			}
			if r5, err = code56.WrapRAID5(disks, p.Disks, code56.LeftAsymmetric); err != nil {
				return nil, err
			}
		}
		mig, err := code56.NewMigrator(r5, rows)
		if err != nil {
			return nil, err
		}
		j, err := migrate.OpenJournal(dir)
		if err != nil {
			return nil, err
		}
		if err := j.SetCheckpointInterval(p.Checkpoint); err != nil {
			j.Close()
			return nil, err
		}
		if err := mig.AttachJournal(j); err != nil {
			j.Close()
			return nil, err
		}
		var io serve.BlockIO = serve.MigratorIO{M: mig}
		if rc.tr != nil {
			io = rc.tr.wrapIO("migrate", io)
		}
		if rc.hooks.wrapIO != nil {
			io = rc.hooks.wrapIO(io)
		}
		if srv == nil {
			if srv, err = startServer(io, blocks, rc.tr); err != nil {
				return nil, err
			}
			for i := 0; i < p.Conns; i++ {
				clients = append(clients, newClient(srv.base))
			}
		} else {
			srv.vol.SetIO(io)
		}

		// The open loop writes as writer 1+2c and the probe as 2+2c, so
		// stamps stay unique across cycles.
		writer = uint64(1 + 2*c)
		halfway := make(chan struct{})
		var once sync.Once
		mig.SetProgressFunc(func(converted, total int64) {
			if 2*converted >= total {
				once.Do(func() { close(halfway) })
			}
		})
		cy := &migrateCycle{win: openWindow()}
		sp := rc.tr.span("migrate.convert", telemetry.A("stripes", p.Stripes), telemetry.A("cycle", c))
		start := time.Now()
		if err := mig.Start(); err != nil {
			return nil, err
		}
		waitc := make(chan error, 1)
		go func() { waitc <- mig.Wait() }()
		log := &opLog{}
		loop := func(part int64) (stop func()) {
			done := make(chan struct{})
			logc := make(chan *opLog, 1)
			go func() {
				logc <- openLoop(rc.seed*1000+2*int64(c)+part, p.Rate, p.Conns, done, next, do, rc.hooks.dispatch)
			}()
			return func() {
				close(done)
				log.merge(<-logc)
			}
		}
		stopLoop := loop(0)
		var werr error
		var paused time.Duration
		select {
		case <-halfway:
			// Halfway through, the conversion is held while the probe runs
			// on the mixed array, then the open loop resumes. The hold is
			// an hour-long throttle, which parks the converter in its
			// interruptible sleep after its current stripe (10 ms is ample
			// for that). Pause would park it on the condition variable
			// that every application write broadcasts, adding a thread
			// wake-up to each measured write.
			stopLoop()
			t0 := time.Now()
			mig.SetThrottle(time.Hour)
			time.Sleep(10 * time.Millisecond)
			writer++
			pr := probeMigrating(p, rc.seed*1000+int64(c), do)
			writer--
			mig.SetThrottle(0)
			paused = time.Since(t0)
			probe.merge(pr)
			if len(pr.reads) > 0 {
				readP50 = append(readP50, quantile(pr.reads, 0.50))
			}
			if len(pr.writes) > 0 {
				writeP50 = append(writeP50, quantile(pr.writes, 0.50))
			}
			stopLoop = loop(1)
			werr = <-waitc
		case werr = <-waitc:
		}
		cy.convertS = (time.Since(start) - paused).Seconds()
		sp.End()
		stopLoop()
		cy.win.close()
		cy.syncs = j.Syncs()
		if err := j.Close(); err != nil {
			return nil, err
		}
		if werr != nil {
			return nil, fmt.Errorf("migration: %w", werr)
		}
		cy.stats = mig.Stats()
		if r6, err = mig.Result(); err != nil {
			return nil, err
		}
		if rc.hooks.beforeVerify != nil {
			if err := rc.hooks.beforeVerify(r6); err != nil {
				return nil, err
			}
		}
		bad, err := countInconsistent(r6, p.Stripes)
		if err != nil {
			return nil, err
		}
		inconsistent += bad
		cycles = append(cycles, cy)
		all.merge(log)
		rates = append(rates, float64(blocks)*float64(p.BlockSize)/1e6/cy.convertS)
		if len(log.reads) > 0 {
			onlineReadP50 = append(onlineReadP50, quantile(log.reads, 0.50))
		}
		if len(log.writes) > 0 {
			onlineWriteP50 = append(onlineWriteP50, quantile(log.writes, 0.50))
		}
		measured += time.Duration(cy.convertS * float64(time.Second))
	}

	o := newOutcome(all, inconsistent, median(setupSecs))
	o.check(readBack(r6, writes, rc.seed, p.BlockSize))
	o.checkStripes(int64(len(cycles)) * p.Stripes)
	o.metrics["data_mb_s"] = median(rates)
	o.report["migrate_mb_s"] = o.metrics["data_mb_s"]
	// The gated p50s are the probe's, median over the conversions like
	// the rate. The open loop's p50s during conversion, the medians over
	// conversions too, are per-layer figures; its tails are client.*.
	o.check(probe.attempted, probe.failed, probe.firstErr)
	o.metrics["read_p50_us"] = median(readP50)
	o.metrics["write_p50_us"] = median(writeP50)
	o.layers["online.read_p50_us"] = median(onlineReadP50)
	o.layers["online.write_p50_us"] = median(onlineWriteP50)
	o.layers["check.read_samples"] += float64(len(probe.reads))
	o.layers["check.write_samples"] += float64(len(probe.writes))
	o.report["ops_s"] = float64(len(all.reads)+len(all.writes)) / measured.Seconds()
	o.report["cycles"] = float64(len(cycles))
	o.report["readback_blocks"] = float64(len(writes.m))
	o.record["backend"] = "mem:, intent log on file"
	o.record["dataset"] = fmt.Sprintf("RAID-5 %d disks left-asymmetric, %d rows, %d B blocks (%.0f MB data) -> Code 5-6 p=%d, %d stripes; intent log on file, checkpoint every %d stripes; %d conns open loop %.0f ops/s Poisson, uniform, %.0f%% reads",
		p.Disks, rows, p.BlockSize, float64(blocks)*float64(p.BlockSize)/1e6, p.Disks+1, p.Stripes,
		p.Checkpoint, p.Conns, p.Rate, p.ReadShare*100)
	o.record["conns"] = p.Conns

	var converted, redone, interrupts, diag, xors, r5xors, syncs, hits, misses, mallocs int64
	var gcPause float64
	wins := make([]*window, len(cycles))
	for i, cy := range cycles {
		wins[i] = cy.win
		converted += cy.stats.StripesConverted
		redone += cy.stats.StripesRedone
		interrupts += cy.stats.WriteInterrupts
		diag += cy.stats.DiagonalUpdates
		xors += cy.win.counter("migrate.conversion_xors")
		r5xors += cy.win.counter("raid5.xors")
		hits += cy.win.counter("bufpool.hits")
		misses += cy.win.counter("bufpool.misses")
		mallocs += int64(cy.win.mallocs())
		gcPause += cy.win.gcPauseMS()
		syncs += cy.syncs
	}
	writesN := float64(len(all.writes) + len(probe.writes))
	ops := float64(len(all.reads)+len(probe.reads)) + writesN
	l := o.layers
	l["migrate.stripes_s"] = float64(converted) / measured.Seconds()
	l["migrate.redo_ratio"] = ratio(float64(redone), float64(converted))
	l["migrate.xors_per_stripe"] = ratio(float64(xors), float64(converted))
	l["migrate.interrupts_per_write"] = ratio(float64(interrupts), writesN)
	l["migrate.diag_updates_per_write"] = ratio(float64(diag), writesN)
	l["raid5.xors_per_write"] = ratio(float64(r5xors), writesN)
	l["wal.syncs_per_gb"] = float64(syncs) / (float64(len(cycles)) * float64(blocks) * float64(p.BlockSize) / 1e9)
	l["bufpool.miss_ratio"] = ratio(float64(misses), float64(hits+misses))
	l["runtime.allocs_per_op"] = ratio(float64(mallocs), ops)
	l["runtime.gc_pause_ms"] = gcPause
	o.vdiskLayers(wins...)

	plan, err := migrate.NewVirtualPlan(p.Disks, raid5.LeftAsymmetric)
	if err != nil {
		return nil, err
	}
	if want := float64(plan.XORs / plan.Period); l["migrate.xors_per_stripe"] != want {
		o.check(1, 1, fmt.Errorf("conversion made %.3f XORs per stripe, the plan predicts %.0f", l["migrate.xors_per_stripe"], want))
	}
	if rc.tr != nil {
		o.servedLayers(rc.tr, "migrate")
		l["raid5.write_us.p50"] = fillUS.quantile(0.50)
	}
	return o, nil
}

// probeMigrating makes p.ProbeWarmup and then p.Probe timed requests on
// the half-converted array, its conversion held, over p.Conns
// connections, each sending its next request when the previous one
// returns: p.ReadShare of them reads, blocks uniform over the volume, so
// about half land on converted Code 5-6 stripes and half on RAID-5 rows.
// Latency is timed from send to response. The warm-up refills the caches
// the conversion evicted; its requests are checked like the others.
func probeMigrating(p migrateOnlineParams, seed int64, do func(conn int, o op) error) *opLog {
	blocks := p.Stripes * int64(p.Disks) * int64(p.Disks-1)
	logs := make([]*opLog, p.Conns)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &opLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := logs[i]
			r := rand.New(rand.NewSource(seed*int64(p.Conns) + int64(i)))
			for k := i; k < p.ProbeWarmup+p.Probe; k += p.Conns {
				o := op{write: r.Float64() >= p.ReadShare, block: r.Int63n(blocks), seq: uint64(k)}
				l.attempted++
				t0 := time.Now()
				if err := do(i, o); err != nil {
					l.fail(err)
					continue
				}
				if k >= p.ProbeWarmup {
					l.record(o.write, micros(time.Since(t0)))
				}
			}
		}(i)
	}
	wg.Wait()
	out := &opLog{}
	for _, l := range logs {
		out.merge(l)
	}
	return out
}

// readBack reads every block written during the run from the converted
// array and checks it holds that block's last acknowledged write.
func readBack(a *raid6.Array, writes *writeLog, seed int64, blockSize int) (attempted, failed int64, firstErr error) {
	buf := make([]byte, blockSize)
	for block, recs := range writes.m {
		attempted++
		err := a.ReadBlock(block, buf)
		var writer, seq uint64
		if err == nil {
			writer, seq, err = checkStamp(buf, seed, block)
		}
		if err == nil && !allowed(recs, writer, seq) {
			err = fmt.Errorf("block %d holds writer %d seq %d, not its last acknowledged write", block, writer, seq)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return attempted, failed, firstErr
}
