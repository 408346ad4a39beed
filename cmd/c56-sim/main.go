// Command c56-sim regenerates the paper's §V-C simulation study (Figure 19
// and Table V): it synthesizes migration I/O traces for every conversion
// scheme and replays them through the DiskSim-substitute disk simulator.
//
// Usage:
//
//	c56-sim                          # both panels of Fig. 19 + Table V
//	c56-sim -p 7 -block 8192        # one panel
//	c56-sim -by-n -n 6              # group codes by resulting disk count
//	c56-sim -B 600000               # the paper's full 0.6M-block scale
//	c56-sim -dump-trace out.trace -p 5 -code code56
//	c56-sim -faults -fault-seed 7   # deterministic fault-injection smoke run
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"code56"
	"code56/internal/analysis"
	"code56/internal/disksim"
	"code56/internal/migrate"
	"code56/internal/obs"
	"code56/internal/trace"
)

func main() {
	var (
		p         = flag.Int("p", 0, "prime parameter (default: both 5 and 7)")
		n         = flag.Int("n", 0, "with -by-n: target disk count")
		byN       = flag.Bool("by-n", false, "group codes by resulting disk count instead of by p")
		block     = flag.Int("block", 0, "block size in bytes (default: both 4096 and 8192)")
		b         = flag.Int("B", 60000, "total data blocks (paper: 600000)")
		nlb       = flag.Bool("nlb", false, "disable load-balancing support (paper's Fig. 19 uses LB)")
		seek      = flag.Float64("seek", 8.5, "average seek time, ms")
		rot       = flag.Float64("rotation", 8.33, "full-rotation time, ms")
		rate      = flag.Float64("rate", 100, "media transfer rate, MB/s")
		window    = flag.Int64("window", 16, "read-through window, blocks")
		util      = flag.Bool("utilization", false, "also print per-disk utilization of each winner")
		dumpTrace = flag.String("dump-trace", "", "write the migration trace for -code to a file and exit")
		codeName  = flag.String("code", "code56", "with -dump-trace: which code's trace to dump")
		faults    = flag.Bool("faults", false, "run the deterministic fault-injection smoke scenario and exit")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the -faults scenario")
		backend   = flag.String("backend", "", "block-store backend for the -faults scenario: 'mem:' (default) or 'file:<dir>'")
	)
	cli := obs.Flags(flag.CommandLine, true)
	flag.Parse()
	model := disksim.Model{SeekTime: *seek, RotationTime: *rot, TransferMBps: *rate, SeqWindow: *window}
	cfg := analysis.SimConfig{TotalDataBlocks: *b, LoadBalanced: !*nlb, Model: model}
	err := cli.Start()
	if err == nil {
		if *faults {
			err = runFaults(*faultSeed, *block, *backend)
		} else {
			err = run(*p, *n, *byN, *block, cfg, *dumpTrace, *codeName, *util)
		}
	}
	if err := cli.Finish(err); err != nil {
		fmt.Fprintln(os.Stderr, "c56-sim:", err)
		os.Exit(1)
	}
}

func run(p, n int, byN bool, block int, cfg analysis.SimConfig, dumpTrace, codeName string, util bool) error {
	blocks := []int{4096, 8192}
	if block != 0 {
		blocks = []int{block}
	}

	if dumpTrace != "" {
		if p == 0 {
			p = 5
		}
		cfg.BlockSize = blocks[0]
		return dump(p, cfg, dumpTrace, codeName)
	}

	if byN {
		ns := []int{5, 6, 7}
		if n != 0 {
			ns = []int{n}
		}
		for _, n := range ns {
			for _, bs := range blocks {
				c := cfg
				c.BlockSize = bs
				if err := analysis.RenderSimulation(os.Stdout, n, c); err != nil {
					return err
				}
				fmt.Println()
			}
		}
		return nil
	}

	ps := []int{5, 7}
	if p != 0 {
		ps = []int{p}
	}
	for _, p := range ps {
		for _, bs := range blocks {
			c := cfg
			c.BlockSize = bs
			if err := analysis.RenderSimulationByP(os.Stdout, p, c); err != nil {
				return err
			}
			if util {
				details, err := analysis.SimulateBestByPDetailed(p, c)
				if err != nil {
					return err
				}
				for _, d := range details {
					fmt.Printf("  %-10s seq %.0f%%  util:", d.Code, d.SequentialFrac*100)
					for _, u := range d.Utilization {
						fmt.Printf(" %.2f", u)
					}
					fmt.Println()
				}
			}
			fmt.Println()
		}
	}
	return nil
}

// runFaults is the -faults smoke scenario: a seeded fault injector
// (transient I/O errors plus latent-sector discovery) runs against an
// online RAID-5 → Code 5-6 migration with a retry policy, then a disk is
// fail-stopped, every block is served degraded, the disk is replaced and
// rebuilt, and a final scrub plus full read-back proves zero data loss.
// With backend "file:<dir>" the whole scenario runs over durable sparse
// image files instead of in-memory stores.
func runFaults(seed int64, block int, backend string) error {
	if block == 0 {
		block = 4096
	}
	const (
		disks = 4  // p = 5
		rows  = 24 // 6 Code 5-6 stripes
	)
	r5, err := code56.NewRAID5Array(disks,
		code56.WithBackend(backend), code56.WithBlockSize(block))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	blocks := int64(disks-1) * rows
	want := make([][]byte, blocks)
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, block)
		rng.Read(b)
		want[L] = b
		if err := r5.WriteBlock(L, b); err != nil {
			return err
		}
	}

	// Arm the injector and a retry policy that absorbs most transients.
	if err := r5.Disks().SetRetry(4, 0); err != nil {
		return err
	}
	err = r5.Disks().SetFaults(code56.FaultConfig{
		Seed:              seed,
		ReadTransientProb: 0.02,
		LatentProb:        0.01,
	})
	if err != nil {
		return err
	}

	mig, err := code56.NewMigrator(r5, rows)
	if err != nil {
		return err
	}
	if err := mig.Start(); err != nil {
		return err
	}
	if err := mig.Wait(); err != nil {
		return err
	}
	st := mig.Stats()
	fmt.Printf("migration: %d stripes converted under faults, %d bad blocks repaired in flight\n",
		st.StripesConverted, st.FaultsRepaired)

	// Quiesce the injector, then lose a whole disk.
	if err := r5.Disks().SetFaults(code56.FaultConfig{}); err != nil {
		return err
	}
	r6, err := mig.Result()
	if err != nil {
		return err
	}
	r6.Disks().Disk(1).Fail()
	buf := make([]byte, block)
	for L := int64(0); L < blocks; L++ {
		if err := r6.ReadBlock(L, buf); err != nil {
			return fmt.Errorf("degraded read of block %d: %w", L, err)
		}
		if !bytes.Equal(buf, want[L]) {
			return fmt.Errorf("degraded read of block %d returned wrong data", L)
		}
	}
	fmt.Printf("degraded: all %d blocks served with disk 1 failed\n", blocks)

	r6.Disks().Disk(1).Replace()
	const stripes = rows / disks // p-1 = 4 rows per Code 5-6 stripe
	if err := code56.RebuildArray(context.Background(), r6, int64(stripes), []int{1}); err != nil {
		return err
	}
	rep, err := code56.ScrubArrayMode(context.Background(), r6, int64(stripes), code56.ScrubRepair)
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("post-rebuild scrub found problems: %+v", rep)
	}
	for L := int64(0); L < blocks; L++ {
		if err := r6.ReadBlock(L, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, want[L]) {
			return fmt.Errorf("block %d wrong after rebuild", L)
		}
	}
	if err := r6.Disks().Sync(); err != nil {
		return err
	}
	fmt.Printf("rebuilt: disk 1 restored, scrub clean, zero data loss\n")
	return nil
}

// dump writes one code's best-approach migration trace in the DiskSim-style
// ASCII format.
func dump(p int, cfg analysis.SimConfig, path, codeName string) error {
	convs, err := analysis.ConversionsByP(p)
	if err != nil {
		return err
	}
	var best *migrate.Plan
	var bestTime float64
	for _, c := range convs {
		if c.Code.Name() != codeName {
			continue
		}
		plan, err := migrate.NewPlan(c)
		if err != nil {
			return err
		}
		tm := plan.Metrics().TimeLB
		if best == nil || tm < bestTime {
			best, bestTime = plan, tm
		}
	}
	if best == nil {
		return fmt.Errorf("no conversion for code %q at p=%d", codeName, p)
	}
	phases := trace.FromPlan(best, trace.Options{
		TotalDataBlocks: cfg.TotalDataBlocks,
		LoadBalanced:    cfg.LoadBalanced,
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for i, ph := range phases {
		if _, err := fmt.Fprintf(f, "# phase %d (%s)\n", i, best.PhaseNames[i]); err != nil {
			return err
		}
		if err := trace.Write(f, ph); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s trace (%s) to %s\n", codeName, best.Conv.Label(), path)
	return nil
}
