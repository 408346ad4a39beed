// Command c56-fleet answers the paper's opening question at data-center
// scale: given a fleet of aging RAID-5 arrays, it scores each array's
// data-loss exposure (Markov MTTDL from the paper's Table I failure
// rates), prices each Code 5-6 migration with the planner and disk
// simulator, and prints a risk-ordered migration schedule under a
// conversion-bandwidth budget.
//
// Usage:
//
//	c56-fleet                         # demo fleet, unlimited bandwidth
//	c56-fleet -budget 12              # only 12 h of conversion bandwidth
//	c56-fleet -arrays 4:3:60000,8:5:200000
//	                                  # disks:age-years:blocks per array
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"code56/internal/disksim"
	"code56/internal/fleet"
	"code56/internal/obs"
)

func main() {
	var (
		arrays = flag.String("arrays", "", "comma-separated disks:age:blocks specs (default: a demo fleet)")
		budget = flag.Float64("budget", 0, "conversion-bandwidth budget in hours (0 = unlimited)")
		block  = flag.Int("block", 4096, "block size in bytes")
		mttr   = flag.Float64("mttr", 24, "per-disk rebuild time, hours")
	)
	cli := obs.Flags(flag.CommandLine, true)
	flag.Parse()
	err := cli.Start()
	if err == nil {
		err = run(*arrays, *budget, *block, *mttr)
	}
	if err := cli.Finish(err); err != nil {
		fmt.Fprintln(os.Stderr, "c56-fleet:", err)
		os.Exit(1)
	}
}

func parseFleet(spec string, block int, mttr float64) ([]fleet.ArraySpec, error) {
	if spec == "" {
		// Data blocks sized like real arrays: ~2 TB of data per disk at
		// 4 KB blocks.
		perDisk := 2 << 40 / block
		return []fleet.ArraySpec{
			{Name: "db-a", Disks: 4, AgeYears: 3, DataBlocks: 3 * perDisk, BlockSize: block, MTTRHours: mttr},
			{Name: "db-b", Disks: 4, AgeYears: 1, DataBlocks: 3 * perDisk, BlockSize: block, MTTRHours: mttr},
			{Name: "object-1", Disks: 8, AgeYears: 4, DataBlocks: 7 * perDisk, BlockSize: block, MTTRHours: mttr},
			{Name: "object-2", Disks: 8, AgeYears: 2, DataBlocks: 7 * perDisk, BlockSize: block, MTTRHours: mttr},
			{Name: "scratch", Disks: 6, AgeYears: 5, DataBlocks: 5 * perDisk, BlockSize: block, MTTRHours: mttr},
		}, nil
	}
	var out []fleet.ArraySpec
	for i, part := range strings.Split(spec, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("array %d: want disks:age:blocks, got %q", i, part)
		}
		disks, err1 := strconv.Atoi(f[0])
		age, err2 := strconv.Atoi(f[1])
		blocks, err3 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("array %d: malformed spec %q", i, part)
		}
		out = append(out, fleet.ArraySpec{
			Name:       fmt.Sprintf("array-%d", i),
			Disks:      disks,
			AgeYears:   age,
			DataBlocks: blocks,
			BlockSize:  block,
			MTTRHours:  mttr,
		})
	}
	return out, nil
}

func run(arrays string, budget float64, block int, mttr float64) error {
	specs, err := parseFleet(arrays, block, mttr)
	if err != nil {
		return err
	}
	sched, err := fleet.Plan(specs, disksim.DefaultModel(), budget)
	if err != nil {
		return err
	}
	fmt.Printf("fleet migration plan (%d arrays, budget %s)\n", len(specs), budgetStr(budget))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "order\tarray\tdisks\tage\tAFR\t1y loss now\t1y loss after\tmigration\twindow (h)")
	for i, e := range sched.Entries {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%dy\t%.1f%%\t%.2e\t%.2e\t%.2fh\t%.2f-%.2f\n",
			i+1, e.Spec.Name, e.Spec.Disks, e.Spec.AgeYears, e.AFR*100,
			e.LossBefore, e.LossAfter, e.MigrationHours, e.StartHour, e.EndHour)
	}
	for _, d := range sched.Deferred {
		fmt.Fprintf(tw, "-\t%s\t%d\t%dy\t%.1f%%\t%.2e\t(deferred)\t%.2fh\t-\n",
			d.Spec.Name, d.Spec.Disks, d.Spec.AgeYears, d.AFR*100, d.LossBefore, d.MigrationHours)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("fleet 1-year expected data-loss events: %.2e -> %.2e (%.0fx reduction), %.2f conversion hours\n",
		sched.ExpectedLossBefore, sched.ExpectedLossAfter,
		sched.ExpectedLossBefore/sched.ExpectedLossAfter, sched.TotalHours)
	return nil
}

func budgetStr(b float64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.1fh", b)
}
