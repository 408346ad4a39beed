// Command c56-recover demonstrates failure recovery for every code in the
// repository: it encodes random stripes, fails disks, reconstructs, and
// reports the work done. With -hybrid it runs the paper's §III-E-4
// read-minimizing single-disk recovery for Code 5-6 (Fig. 6).
//
// With -rebuild it runs a whole-array rebuild instead: it fails and
// replaces disks of a populated RAID-6 array, rebuilds every stripe with
// -workers goroutines through the parallel stripe engine, and verifies the
// result.
//
// Usage:
//
//	c56-recover -code code56 -p 5 -fail 1,2
//	c56-recover -hybrid -p 5
//	c56-recover -all -p 7
//	c56-recover -rebuild -p 13 -fail 2,5 -stripes 128 -workers 4
//	c56-recover -scrub -p 5 -stripes 64
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	code56 "code56"
	"code56/internal/analysis"
	"code56/internal/obs"
)

func main() {
	var (
		codeName = flag.String("code", "code56", "code: code56, rdp, evenodd, xcode, pcode, pcode-p, hcode, hdp")
		p        = flag.Int("p", 5, "prime parameter")
		failSpec = flag.String("fail", "0,1", "comma-separated failed columns")
		hybrid   = flag.Bool("hybrid", false, "run the hybrid single-disk recovery study")
		all      = flag.Bool("all", false, "run double-failure recovery for every code")
		block    = flag.Int("block", 4096, "block size in bytes")
		rebuild  = flag.Bool("rebuild", false, "rebuild failed+replaced disks of a whole array in parallel")
		stripes  = flag.Int64("stripes", 64, "stripes in the array (-rebuild/-scrub modes)")
		workers  = flag.Int("workers", 1, "worker goroutines for the rebuild or scrub")
		scrub    = flag.Bool("scrub", false, "plant latent errors and silent corruption in an array, then check and repair it by scrubbing")
		seed     = flag.Int64("seed", 23, "seed for planted faults (-scrub mode)")
		backend  = flag.String("backend", "", "block-store backend for -rebuild/-scrub arrays: 'mem:' (default) or 'file:<dir>'")
	)
	cli := obs.Flags(flag.CommandLine, false)
	flag.Parse()
	err := cli.Start()
	if err == nil {
		switch {
		case *scrub:
			err = runScrub(*codeName, *p, *block, *stripes, *workers, *seed, *backend)
		case *rebuild:
			err = runRebuild(*codeName, *p, *failSpec, *block, *stripes, *workers, *backend)
		default:
			err = run(*codeName, *p, *failSpec, *hybrid, *all, *block)
		}
	}
	if err := cli.Finish(err); err != nil {
		fmt.Fprintln(os.Stderr, "c56-recover:", err)
		os.Exit(1)
	}
}

func makeCode(name string, p int) (code56.Code, error) {
	switch name {
	case "code56":
		return code56.New(p)
	case "rdp":
		return code56.NewRDP(p)
	case "evenodd":
		return code56.NewEVENODD(p)
	case "xcode":
		return code56.NewXCode(p)
	case "pcode":
		return code56.NewPCode(p)
	case "pcode-p":
		return code56.NewPCodeP(p)
	case "hcode":
		return code56.NewHCode(p)
	case "hdp":
		return code56.NewHDP(p)
	default:
		return nil, fmt.Errorf("unknown code %q", name)
	}
}

func run(codeName string, p int, failSpec string, hybrid, all bool, block int) error {
	if hybrid {
		if err := analysis.RenderHybridRecovery(os.Stdout, []int{5, 7, 11, 13}); err != nil {
			return err
		}
		fmt.Println()
		for _, pp := range []int{5, 7} {
			if err := analysis.RenderRecoveryAcrossCodes(os.Stdout, pp); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	names := []string{codeName}
	if all {
		names = []string{"code56", "rdp", "evenodd", "xcode", "pcode", "pcode-p", "hcode", "hdp"}
	}
	var fails []int
	for _, f := range strings.Split(failSpec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -fail value: %v", err)
		}
		fails = append(fails, v)
	}
	for _, name := range names {
		if err := demo(name, p, fails, block); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func demo(name string, p int, fails []int, block int) error {
	code, err := makeCode(name, p)
	if err != nil {
		return err
	}
	g := code.Geometry()
	for _, f := range fails {
		if f < 0 || f >= g.Cols {
			return fmt.Errorf("failed column %d outside 0..%d", f, g.Cols-1)
		}
	}
	s := code56.NewStripe(g, block)
	s.FillRandom(code, rand.New(rand.NewSource(42)))
	xors := code56.Encode(code, s)
	orig := s.Clone()

	es := code56.EraseColumns(s, fails...)
	st, err := code56.Reconstruct(code, s, es)
	if err != nil {
		return err
	}
	if !s.Equal(orig) {
		return fmt.Errorf("reconstruction produced wrong contents")
	}
	method := "peeling"
	if st.UsedElimination {
		method = "GF(2) elimination"
	}
	fmt.Printf("%-8s p=%-2d %dx%d stripe: encode %d XORs; failed cols %v: recovered %d blocks via %s (%d XORs, %d distinct reads)\n",
		name, p, g.Rows, g.Cols, xors, fails, st.Recovered, method, st.XORs, st.BlocksRead)
	return nil
}

// runScrub populates a RAID-6 array, plants latent sector errors and silent
// single-block corruptions, surveys the damage with a check-only scrub,
// repairs it with a repairing scrub, and proves the array clean with a
// final check pass plus a full data read-back.
func runScrub(codeName string, p, block int, stripes int64, workers int, seed int64, backend string) error {
	code, err := makeCode(codeName, p)
	if err != nil {
		return err
	}
	g := code.Geometry()
	a, err := code56.NewRAID6Array(code,
		code56.WithBackend(backend), code56.WithBlockSize(block))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	blocks := int64(a.DataPerStripe()) * stripes
	want := make([][]byte, blocks)
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, block)
		rng.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			return err
		}
	}

	// Plant faults on disjoint stripes so each stripe has a single,
	// locatable problem: latent errors on stripes ≡ 0 (mod 4), silent
	// corruptions on stripes ≡ 2 (mod 4).
	var nLatent, nCorrupt int
	garbage := make([]byte, block)
	for st := int64(0); st < stripes; st++ {
		r := int64(rng.Intn(g.Rows))
		d := rng.Intn(g.Cols)
		switch st % 4 {
		case 0:
			a.Disks().Disk(d).InjectLatentError(st*int64(g.Rows) + r)
			nLatent++
		case 2:
			rng.Read(garbage)
			if err := a.Disks().Disk(d).Write(st*int64(g.Rows)+r, garbage); err != nil {
				return err
			}
			nCorrupt++
		}
	}
	fmt.Printf("%s p=%d: planted %d latent sector errors and %d silent corruptions across %d stripes\n",
		code.Name(), p, nLatent, nCorrupt, stripes)

	ctx := context.Background()
	check, err := code56.ScrubArrayMode(ctx, a, stripes, code56.ScrubCheck, code56.WithWorkers(workers))
	if err != nil {
		return err
	}
	fmt.Printf("check pass:  %d latent found, %d corruptions located, %d unrecoverable (nothing written)\n",
		check.LatentFound, check.CorruptFound, len(check.Unrecoverable))
	if check.LatentRepaired != 0 || check.CorruptRepaired != 0 {
		return fmt.Errorf("check-mode scrub wrote to the array")
	}

	rep, err := code56.ScrubArrayMode(ctx, a, stripes, code56.ScrubRepair, code56.WithWorkers(workers))
	if err != nil {
		return err
	}
	fmt.Printf("repair pass: %d latent repaired, %d corruptions rewritten\n",
		rep.LatentRepaired, rep.CorruptRepaired)

	final, err := code56.ScrubArrayMode(ctx, a, stripes, code56.ScrubCheck, code56.WithWorkers(workers))
	if err != nil {
		return err
	}
	if !final.Clean() {
		return fmt.Errorf("array still dirty after repair scrub: %+v", final)
	}
	buf := make([]byte, block)
	for L := int64(0); L < blocks; L++ {
		if err := a.ReadBlock(L, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, want[L]) {
			return fmt.Errorf("block %d wrong after scrub repair", L)
		}
	}
	if err := a.Disks().Sync(); err != nil {
		return err
	}
	fmt.Printf("verified: array clean, all %d data blocks intact\n", blocks)
	return nil
}

// runRebuild populates a RAID-6 array, fails and replaces the given disks,
// rebuilds every stripe through the parallel stripe engine, and verifies
// both parity consistency and data integrity.
func runRebuild(codeName string, p int, failSpec string, block int, stripes int64, workers int, backend string) error {
	code, err := makeCode(codeName, p)
	if err != nil {
		return err
	}
	g := code.Geometry()
	var fails []int
	for _, f := range strings.Split(failSpec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -fail value: %v", err)
		}
		if v < 0 || v >= g.Cols {
			return fmt.Errorf("failed column %d outside 0..%d", v, g.Cols-1)
		}
		fails = append(fails, v)
	}
	a, err := code56.NewRAID6Array(code,
		code56.WithBackend(backend), code56.WithBlockSize(block))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	blocks := int64(a.DataPerStripe()) * stripes
	want := make([][]byte, blocks)
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, block)
		rng.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			return err
		}
	}
	for _, f := range fails {
		a.Disks().Disk(f).Fail()
		a.Disks().Disk(f).Replace()
	}
	fmt.Printf("%s: rebuilding disks %v across %d stripes with %d workers\n",
		code.Name(), fails, stripes, workers)
	start := time.Now()
	if err := code56.RebuildArray(context.Background(), a, stripes, fails,
		code56.WithWorkers(workers)); err != nil {
		return err
	}
	elapsed := time.Since(start)
	buf := make([]byte, block)
	for L := int64(0); L < blocks; L++ {
		if err := a.ReadBlock(L, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, want[L]) {
			return fmt.Errorf("block %d corrupted by rebuild", L)
		}
	}
	if err := a.Disks().Sync(); err != nil {
		return err
	}
	rebuilt := stripes * int64(g.Rows) * int64(len(fails))
	mb := float64(rebuilt) * float64(block) / 1e6
	fmt.Printf("rebuilt %d blocks (%.1f MB) in %v (%.1f MB/s); all %d data blocks verified\n",
		rebuilt, mb, elapsed.Truncate(time.Microsecond), mb/elapsed.Seconds(), blocks)
	return nil
}
