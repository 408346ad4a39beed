package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"time"

	code56 "code56"
	"code56/internal/layout"
	"code56/internal/raid6"
	"code56/internal/serve"
	"code56/internal/telemetry"
)

// recoverP13Params sizes the recover-p13 workload: repeated encode,
// single- and double-disk rebuild and scrub cycles on an in-memory Code 5-6
// p=13 array. While the single failed disk is down, a foreground probe
// reads and writes blocks that live on it: degraded reads, which
// reconstruct the block, and degraded writes, which re-encode its stripe.
type recoverP13Params struct {
	P         int
	BlockSize int
	Stripes   int64
	Workers   int
	Setups    int
	Probe     int     // probe requests per cycle, made while one disk is down
	ReadShare float64 // of the probe requests
	MaxCycles int
	// Rebuild1Only runs cycles of the single-disk failure alone: probe,
	// Replace and RebuildArray, without encode, double rebuild or scrub.
	Rebuild1Only bool
}

var recoverP13Full = recoverP13Params{
	P: 13, BlockSize: 16384, Stripes: 128, Workers: 2, Setups: 3, Probe: 200, ReadShare: 0.7, MaxCycles: 52,
}

// recoverP13Rebuild1 gates the single-disk rebuild on its own: in the full
// cycle its rate is diluted by the other three steps.
var recoverP13Rebuild1 = recoverP13Params{
	P: 13, BlockSize: 16384, Stripes: 128, Workers: 2, Setups: 3, Probe: 200, ReadShare: 0.7, MaxCycles: 156,
	Rebuild1Only: true,
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// columnDigest checksums every cell of one column, stripe by stripe.
func columnDigest(a *raid6.Array, col int, stripes int64) ([]uint32, error) {
	rows := a.Code().Geometry().Rows
	buf := make([]byte, a.BlockSize())
	sums := make([]uint32, 0, int(stripes)*rows)
	for s := int64(0); s < stripes; s++ {
		for r := 0; r < rows; r++ {
			if err := a.ReadCell(s, layout.Coord{Row: r, Col: col}, buf); err != nil {
				return nil, fmt.Errorf("digest stripe %d cell (%d,%d): %w", s, r, col, err)
			}
			sums = append(sums, crc32.Checksum(buf, castagnoli))
		}
	}
	return sums, nil
}

// step is one timed bulk call of a cycle.
type step struct {
	name   string
	secs   []float64
	cpu    time.Duration
	wall   time.Duration
	reads  int64 // vdisk reads
	xors   int64 // raid6 block XORs
	blocks int64 // blocks rebuilt
}

func (s *step) run(tr *tracing, f func() error) error {
	w := openWindow()
	sp := tr.span("raid6."+s.name, telemetry.A("parent", "recover-p13.cycle"))
	err := f()
	sp.End()
	w.close()
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	s.secs = append(s.secs, w.wall().Seconds())
	s.cpu += w.cpu1 - w.cpu0
	s.wall += w.wall()
	s.reads += w.counter("vdisk.reads")
	s.xors += w.counter("raid6.xors")
	return nil
}

func runRecoverP13(rc *runCtx, p recoverP13Params) (*outcome, error) {
	a, setupS, err := timedSetups(p.Setups, func() (*raid6.Array, error) {
		return fillRAID6(p.P, p.BlockSize, p.Stripes, rc.seed)
	})
	if err != nil {
		return nil, err
	}
	g := a.Code().Geometry()
	blocks := p.Stripes * int64(a.DataPerStripe())
	dataMB := float64(blocks) * float64(p.BlockSize) / 1e6
	ctx := context.Background()
	opts := []code56.Option{code56.WithWorkers(p.Workers)}

	var io serve.BlockIO = a
	if rc.tr != nil {
		io = rc.tr.wrapIO("raid6", io)
	}
	if rc.hooks.wrapIO != nil {
		io = rc.hooks.wrapIO(io)
	}
	r := rand.New(rand.NewSource(rc.seed))
	rot := r.Perm(g.Cols) // the failed columns of cycle k are rot[k], rot[k+1], rot[k+2]
	// onCol[c] lists the data cells of a stripe that live on column c, by
	// their index among the stripe's data blocks.
	n := int64(a.DataPerStripe())
	onCol := make([][]int64, g.Cols)
	for i := int64(0); i < n; i++ {
		_, cell := a.Locate(i)
		onCol[cell.Col] = append(onCol[cell.Col], i)
	}
	want := map[int64]uint64{}
	var seq uint64
	probe := &opLog{}
	buf := make([]byte, p.BlockSize)
	// probeDown makes the cycle's probe requests on blocks of the failed
	// column col and returns, by digest index, the checksum each written
	// cell must hold once the column is rebuilt.
	probeDown := func(col int) map[int]uint32 {
		written := map[int]uint32{}
		if len(onCol[col]) == 0 {
			return written // a parity-only column holds no block
		}
		prev := time.Now()
		for i := 0; i < p.Probe; i++ {
			write := r.Float64() >= p.ReadShare
			b := r.Int63n(p.Stripes)*n + onCol[col][r.Intn(len(onCol[col]))]
			if write {
				seq++
				stamp(buf, rc.seed, b, 1, seq)
			}
			start := time.Now()
			probe.late = append(probe.late, micros(start.Sub(prev)))
			probe.attempted++
			var err error
			if write {
				err = io.WriteBlock(b, buf)
			} else {
				err = io.ReadBlock(b, buf)
			}
			prev = time.Now()
			us := micros(prev.Sub(start))
			if err == nil && !write {
				var w, sq uint64
				w, sq, err = checkStamp(buf, rc.seed, b)
				wantW, wantSeq := uint64(setupWriter), uint64(0)
				if ws, ok := want[b]; ok {
					wantW, wantSeq = 1, ws
				}
				if err == nil && (w != wantW || sq != wantSeq) {
					err = fmt.Errorf("block %d holds writer %d seq %d, not its last write", b, w, sq)
				}
			}
			if err != nil {
				probe.fail(err)
				continue
			}
			if write {
				want[b] = seq
				stripe, cell := a.Locate(b)
				written[int(stripe)*g.Rows+cell.Row] = crc32.Checksum(buf, castagnoli)
			}
			probe.record(write, us)
		}
		return written
	}

	// rebuildChecked fails and replaces cols, rebuilds them and compares
	// each rebuilt cell with its digest from before the failure, or with
	// the checksum of what whileDown wrote to it.
	var compared, mismatched int64
	var mismatchErr error
	rebuildChecked := func(st *step, cols []int, whileDown func() map[int]uint32) error {
		digests := make([][]uint32, len(cols))
		for i, c := range cols {
			var err error
			if digests[i], err = columnDigest(a, c, p.Stripes); err != nil {
				return err
			}
			a.Disks().Disk(c).Fail()
		}
		for j, sum := range whileDown() {
			digests[0][j] = sum
		}
		for _, c := range cols {
			a.Disks().Disk(c).Replace()
		}
		if err := st.run(rc.tr, func() error { return code56.RebuildArray(ctx, a, p.Stripes, cols, opts...) }); err != nil {
			return err
		}
		st.blocks += p.Stripes * int64(len(cols)*g.Rows)
		for i, c := range cols {
			got, err := columnDigest(a, c, p.Stripes)
			if err != nil {
				return err
			}
			for j := range got {
				compared++
				if got[j] != digests[i][j] {
					mismatched++
					if mismatchErr == nil {
						mismatchErr = fmt.Errorf("column %d cell %d differs after rebuild", c, j)
					}
				}
			}
		}
		return nil
	}

	encode, rebuild1, rebuild2, scrub := &step{name: "encode"}, &step{name: "rebuild1"}, &step{name: "rebuild2"}, &step{name: "scrub"}
	var cycleRates []float64
	var scrubs, dirtyScrubs int64
	start := time.Now()
	win := openWindow()
	// Cycles run in whole rotations, so every run fails each column once as
	// the single failure, whatever order the seed puts them in.
	for k := 0; k < p.MaxCycles && (k%g.Cols != 0 || k == 0 || time.Since(start) < rc.seconds); k++ {
		t0 := encode.wall + rebuild1.wall + rebuild2.wall + scrub.wall
		col := rot[k%g.Cols]
		steps := 1.0
		if !p.Rebuild1Only {
			steps = 4
			if err := encode.run(rc.tr, func() error { return code56.EncodeArrayStripes(ctx, a, p.Stripes, opts...) }); err != nil {
				return nil, err
			}
		}
		if err := rebuildChecked(rebuild1, []int{col}, func() map[int]uint32 { return probeDown(col) }); err != nil {
			return nil, err
		}
		if !p.Rebuild1Only {
			if err := rebuildChecked(rebuild2, []int{rot[(k+1)%g.Cols], rot[(k+2)%g.Cols]}, func() map[int]uint32 { return nil }); err != nil {
				return nil, err
			}
			var rep raid6.ScrubReport
			if err := scrub.run(rc.tr, func() (err error) {
				rep, err = code56.ScrubArrayMode(ctx, a, p.Stripes, code56.ScrubCheck, opts...)
				return err
			}); err != nil {
				return nil, err
			}
			scrubs++
			if !rep.Clean() {
				dirtyScrubs++
			}
		}
		took := encode.wall + rebuild1.wall + rebuild2.wall + scrub.wall - t0
		cycleRates = append(cycleRates, steps*dataMB/took.Seconds())
	}
	win.close()

	if rc.hooks.beforeVerify != nil {
		if err := rc.hooks.beforeVerify(a); err != nil {
			return nil, err
		}
	}
	bad, err := countInconsistent(a, p.Stripes)
	if err != nil {
		return nil, err
	}
	o := newOutcome(probe, bad, setupS)
	o.checkStripes(p.Stripes)
	o.check(compared, mismatched, mismatchErr)
	var scrubErr error
	if dirtyScrubs > 0 {
		scrubErr = fmt.Errorf("%d of %d check scrubs found inconsistencies", dirtyScrubs, scrubs)
	}
	o.check(scrubs, dirtyScrubs, scrubErr)
	o.metrics["data_mb_s"] = median(cycleRates)
	o.record["backend"] = "mem:"
	cycle := "encode, rebuild1, rebuild2, scrub"
	if p.Rebuild1Only {
		cycle = "rebuild1 only"
	}
	o.record["dataset"] = fmt.Sprintf("Code 5-6 p=%d, %d disks, %d stripes, %d B blocks (%.0f MB data), %d workers; cycles of %s; probe of %d requests per cycle (%.0f%% reads) on the blocks of the one failed disk while it is down",
		p.P, g.Cols, p.Stripes, p.BlockSize, dataMB, p.Workers, cycle, p.Probe, p.ReadShare*100)
	o.report["cycles"] = float64(len(cycleRates))
	l := o.layers
	o.vdiskLayers(win)
	l["runtime.gc_pause_ms"] = win.gcPauseMS()
	for _, s := range []*step{encode, rebuild1, rebuild2, scrub} {
		if len(s.secs) == 0 {
			continue
		}
		rate := dataMB / median(s.secs)
		o.report[s.name+"_mb_s"] = rate
		l["raid6."+s.name+"_mb_s"] = rate
		l["raid6."+s.name+"_cpu_util"] = float64(s.cpu) / (float64(s.wall) * float64(runtime.GOMAXPROCS(0)))
	}
	l["vdisk.reads_per_rebuilt_block.rebuild1"] = ratio(float64(rebuild1.reads), float64(rebuild1.blocks))
	l["vdisk.reads_per_rebuilt_block.rebuild2"] = ratio(float64(rebuild2.reads), float64(rebuild2.blocks))
	l["xorblk.bytes_per_data_byte"] = ratio(float64(encode.xors)*float64(p.BlockSize), float64(len(encode.secs))*float64(blocks)*float64(p.BlockSize))
	if rc.tr != nil {
		o.ioLayers(rc.tr, "raid6")
	}
	return o, nil
}
