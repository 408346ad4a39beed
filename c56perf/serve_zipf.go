package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	code56 "code56"
	"code56/internal/raid6"
	"code56/internal/serve"
)

// serveZipfParams sizes the serve-zipf workload: a Code 5-6 RAID-6 volume
// served over loopback HTTP to a closed loop of keep-alive connections
// issuing 4 KiB requests on Zipf-distributed blocks.
type serveZipfParams struct {
	P         int
	BlockSize int
	Stripes   int64
	Conns     int
	Setups    int
	Theta     float64
	ReadShare float64
}

var serveZipfFull = serveZipfParams{
	P: 5, BlockSize: 4096, Stripes: 5461, Conns: 2, Setups: 3, Theta: 0.99, ReadShare: 0.7,
}

// fillRAID6 builds an in-memory Code 5-6 array and fills every data block
// of stripes with setup stamps, one full-stripe write per stripe.
func fillRAID6(p, blockSize int, stripes, seed int64) (*raid6.Array, error) {
	code, err := code56.New(p)
	if err != nil {
		return nil, err
	}
	a, err := code56.NewRAID6Array(code, code56.WithBlockSize(blockSize))
	if err != nil {
		return nil, err
	}
	n := int64(a.DataPerStripe())
	data := make([][]byte, n)
	for i := range data {
		data[i] = make([]byte, blockSize)
	}
	for s := int64(0); s < stripes; s++ {
		for i, b := range data {
			stamp(b, seed, s*n+int64(i), setupWriter, 0)
		}
		if err := a.WriteStripe(s, data); err != nil {
			return nil, fmt.Errorf("fill stripe %d: %w", s, err)
		}
	}
	return a, nil
}

// countInconsistent verifies every stripe's parity.
func countInconsistent(a *raid6.Array, stripes int64) (int64, error) {
	var bad int64
	for s := int64(0); s < stripes; s++ {
		ok, err := a.VerifyStripe(s)
		if err != nil {
			return 0, fmt.Errorf("verify stripe %d: %w", s, err)
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// timedSetups runs setup n times and returns the last result with the
// median set-up time; earlier results are released before the next set-up
// so they do not count towards its resident size.
func timedSetups[T any](n int, setup func() (T, error)) (T, float64, error) {
	var v T
	var secs []float64
	for i := 0; i < n; i++ {
		var zero T
		v = zero
		releaseMemory()
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return v, median(secs), nil
}

// closedLoop runs conns workers, each sending its next request on its own
// connection as soon as the previous one completes, until d has passed.
// Writes carry stamps; reads check theirs. Lateness is the generator's own
// time between one response and the next request.
func closedLoop(rc *runCtx, base string, conns, blockSize int, d time.Duration, next func(r *rand.Rand) (bool, int64)) *opLog {
	logs := make([]*opLog, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range logs {
		logs[i] = &opLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, c := logs[i], newClient(base)
			defer c.close()
			r := rand.New(rand.NewSource(rc.seed*1000 + int64(i)))
			buf := make([]byte, blockSize)
			writer, seq := uint64(i+1), uint64(0)
			prev := time.Now()
			for time.Since(start) < d {
				write, block := next(r)
				if write {
					seq++
					stamp(buf, rc.seed, block, writer, seq)
				}
				req := int64(-1)
				if rc.tr != nil {
					req = rc.tr.nextReq.Add(1)
				}
				sent := time.Now()
				l.late = append(l.late, micros(sent.Sub(prev)))
				l.attempted++
				err := c.do(write, block, buf, req)
				prev = time.Now()
				us := micros(prev.Sub(sent))
				if err == nil && !write {
					_, _, err = checkStamp(buf, rc.seed, block)
				}
				if err != nil {
					l.fail(err)
					continue
				}
				l.record(write, us)
				if rc.tr != nil {
					rc.tr.wire(req, us)
				}
			}
		}(i)
	}
	wg.Wait()
	all := &opLog{}
	for _, l := range logs {
		all.merge(l)
	}
	return all
}

func runServeZipf(rc *runCtx, p serveZipfParams) (*outcome, error) {
	a, setupS, err := timedSetups(p.Setups, func() (*raid6.Array, error) {
		return fillRAID6(p.P, p.BlockSize, p.Stripes, rc.seed)
	})
	if err != nil {
		return nil, err
	}
	blocks := p.Stripes * int64(a.DataPerStripe())
	var io serve.BlockIO = a
	if rc.tr != nil {
		io = rc.tr.wrapIO("raid6", io)
	}
	if rc.hooks.wrapIO != nil {
		io = rc.hooks.wrapIO(io)
	}
	srv, err := startServer(io, blocks, rc.tr)
	if err != nil {
		return nil, err
	}
	z := newZipf(blocks, p.Theta)
	w := openWindow()
	log := closedLoop(rc, srv.base, p.Conns, p.BlockSize, rc.seconds, func(r *rand.Rand) (bool, int64) {
		return r.Float64() >= p.ReadShare, z.next(r)
	})
	w.close()
	srv.stop()

	if rc.hooks.beforeVerify != nil {
		if err := rc.hooks.beforeVerify(a); err != nil {
			return nil, err
		}
	}
	bad, err := countInconsistent(a, p.Stripes)
	if err != nil {
		return nil, err
	}

	o := newOutcome(log, bad, setupS)
	ops := float64(len(log.reads) + len(log.writes))
	o.report["ops_s"] = ops / w.wall().Seconds()
	o.metrics["data_mb_s"] = o.report["ops_s"] * float64(p.BlockSize) / 1e6
	o.record["backend"] = "mem:"
	o.record["dataset"] = fmt.Sprintf("Code 5-6 p=%d, %d disks, %d stripes, %d B blocks, %d logical blocks (%.1f MiB data); %d conns closed loop, zipf theta %.2f, %.0f%% reads",
		p.P, p.P, p.Stripes, p.BlockSize, blocks, float64(blocks)*float64(p.BlockSize)/(1<<20), p.Conns, p.Theta, p.ReadShare*100)
	o.record["conns"] = p.Conns

	writes := float64(len(log.writes))
	reads := float64(len(log.reads))
	l := o.layers
	l["raid6.xors_per_write"] = ratio(float64(w.counter("raid6.xors")), writes)
	// A healthy Code 5-6 read costs one disk read, so the disk reads left
	// over after the served reads are the writes' read-modify-write reads.
	l["vdisk.reads_per_op"] = ratio(float64(w.counter("vdisk.reads"))-reads, writes)
	l["vdisk.writes_per_op"] = ratio(float64(w.counter("vdisk.writes")), writes)
	l["bufpool.miss_ratio"] = ratio(float64(w.counter("bufpool.misses")), float64(w.counter("bufpool.hits")+w.counter("bufpool.misses")))
	l["runtime.allocs_per_op"] = ratio(float64(w.mallocs()), ops)
	l["runtime.gc_pause_ms"] = w.gcPauseMS()
	o.vdiskLayers(w)
	if rc.tr != nil {
		o.servedLayers(rc.tr, "raid6")
		rh, wh := vdiskHist([]*window{w}, "read_latency_us"), vdiskHist([]*window{w}, "write_latency_us")
		// The disk service time under one write: its RMW reads and writes
		// at the mean per-disk service times of this run.
		under := l["vdisk.reads_per_op"]*rh.Mean() + l["vdisk.writes_per_op"]*wh.Mean()
		l["raid6.self_us.write_p50"] = l["raid6.write_us.p50"] - under
	}
	return o, nil
}
