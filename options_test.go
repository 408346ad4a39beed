package code56

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestOptionDefaultsAndOverrides pins ApplyOptions' defaults and that each
// With* helper lands on its field.
func TestOptionDefaultsAndOverrides(t *testing.T) {
	s := ApplyOptions()
	if s.BlockSize != 4096 || s.Workers != 0 || s.ChunkSize != 0 ||
		s.Layout != LeftAsymmetric || s.Throttle != 0 {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	s = ApplyOptions(
		WithWorkers(8), WithChunkSize(1<<20), WithBlockSize(64),
		WithBatchBytes(1<<19), WithLayout(RightSymmetric),
		WithThrottle(time.Millisecond), nil,
	)
	if s.Workers != 8 || s.ChunkSize != 1<<20 || s.BlockSize != 64 ||
		s.BatchBytes != 1<<19 || s.Layout != RightSymmetric ||
		s.Throttle != time.Millisecond {
		t.Fatalf("options not applied: %+v", s)
	}
}

// TestOptionValidation: invalid option values must produce descriptive
// errors from every option-based entry point rather than being silently
// replaced by defaults (they used to be dropped by `> 0` guards).
func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  Option
	}{
		{"WithWorkers(-3)", WithWorkers(-3)},
		{"WithChunkSize(0)", WithChunkSize(0)},
		{"WithChunkSize(-1)", WithChunkSize(-1)},
		{"WithBatchBytes(0)", WithBatchBytes(0)},
		{"WithBatchBytes(-1)", WithBatchBytes(-1)},
		{"WithBlockSize(0)", WithBlockSize(0)},
		{"WithBlockSize(-1)", WithBlockSize(-1)},
		{"WithThrottle(-1ms)", WithThrottle(-time.Millisecond)},
		{"WithRetry(-1, 0)", WithRetry(-1, 0)},
		{"WithRetry(2, -1ms)", WithRetry(2, -time.Millisecond)},
		{"WithFaults(prob 2)", WithFaults(FaultConfig{ReadTransientProb: 2})},
		{"WithFaults(FailAtIO -1)", WithFaults(FaultConfig{FailAtIO: -1})},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			s := ApplyOptions(tc.opt)
			if s.Err() == nil {
				t.Fatalf("%s accepted silently", tc.name)
			}

			if _, err := NewRAID5Array(4, tc.opt); err == nil {
				t.Errorf("NewRAID5Array swallowed %s", tc.name)
			}
			code, err := New(5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewRAID6Array(code, tc.opt); err == nil {
				t.Errorf("NewRAID6Array swallowed %s", tc.name)
			}
			r5, err := NewRAID5Array(4, WithBlockSize(32))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewMigrator(r5, 4, tc.opt); err == nil {
				t.Errorf("NewMigrator swallowed %s", tc.name)
			}
			plan, err := NewVirtualPlan(4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunPlan(context.Background(), NewExecutor(plan, 32, 1), tc.opt); err == nil {
				t.Errorf("RunPlan swallowed %s", tc.name)
			}
			a, err := NewRAID6Array(code, WithBlockSize(32))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := EncodeArrayStripes(ctx, a, 1, tc.opt); err == nil {
				t.Errorf("EncodeArrayStripes swallowed %s", tc.name)
			}
			if _, err := ScrubArrayMode(ctx, a, 1, ScrubRepair, tc.opt); err == nil {
				t.Errorf("ScrubArrayMode swallowed %s", tc.name)
			}
			if err := RebuildArray(ctx, a, 1, nil, tc.opt); err == nil {
				t.Errorf("RebuildArray swallowed %s", tc.name)
			}
		})
	}

	// The first error wins and survives later valid options.
	s := ApplyOptions(WithBlockSize(-1), WithBlockSize(64), WithWorkers(2))
	if s.Err() == nil {
		t.Fatal("option error dropped by later valid options")
	}

	// Edge values that remain valid: 0 workers (GOMAXPROCS), 0 throttle,
	// 0 retries.
	s = ApplyOptions(WithWorkers(0), WithThrottle(0), WithRetry(0, 0))
	if s.Err() != nil {
		t.Fatalf("valid edge values rejected: %v", s.Err())
	}
}

// TestOptionFaultsAndRetryApply: WithFaults / WithRetry reach the disks the
// constructors create.
func TestOptionFaultsAndRetryApply(t *testing.T) {
	r5, err := NewRAID5Array(4, WithBlockSize(32),
		WithFaults(FaultConfig{Seed: 42, FailAtIO: 1}),
		WithRetry(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	// The first I/O against any disk must trip the scheduled failure.
	buf := make([]byte, 32)
	if err := r5.Disks().Disk(0).Read(0, buf); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("scheduled failure not armed via options: %v", err)
	}
}

// TestOptionConstructorsMatchPositional: the array constructors honour
// WithLayout and WithBlockSize.
func TestOptionConstructorsMatchPositional(t *testing.T) {
	r5, err := NewRAID5Array(4, WithBlockSize(32), WithLayout(LeftSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	if r5.M() != 4 || r5.Layout() != LeftSymmetric {
		t.Fatal("NewRAID5Array options ignored")
	}

	code, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewRAID6Array(code, WithBlockSize(128))
	if err != nil {
		t.Fatal(err)
	}
	if a.Disks().Disk(0).BlockSize() != 128 {
		t.Fatal("NewRAID6Array block size ignored")
	}
}

// TestFacadeParallelLifecycle drives encode → scrub → fail → rebuild →
// recover through the option-based context entry points.
func TestFacadeParallelLifecycle(t *testing.T) {
	ctx := context.Background()
	code, err := New(7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewRAID6Array(code, WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	const stripes = 16
	r := rand.New(rand.NewSource(9))
	want := map[int64][]byte{}
	for L := int64(0); L < int64(a.DataPerStripe()*stripes); L++ {
		b := make([]byte, 64)
		r.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := EncodeArrayStripes(ctx, a, stripes, WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	rep, err := ScrubArrayMode(ctx, a, stripes, ScrubRepair, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stripes != stripes || rep.LatentRepaired != 0 || rep.CorruptRepaired != 0 {
		t.Fatalf("unexpected scrub report %+v", rep)
	}

	a.Disks().Disk(2).Fail()
	a.Disks().Disk(2).Replace()
	if err := RebuildArray(ctx, a, stripes, []int{2}, WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d wrong after parallel rebuild", L)
		}
	}

	// Stripe-level recovery through the facade.
	plan, err := PlanColumnRecovery(code, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := code.Geometry()
	orig := NewStripe(g, 32)
	orig.FillRandom(code, r)
	Encode(code, orig)
	lost := []*Stripe{orig.Clone(), orig.Clone()}
	for _, s := range lost {
		s.ZeroColumn(1)
	}
	st, err := RecoverStripes(ctx, plan, code, lost, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksRead != 2*plan.Reads {
		t.Fatalf("aggregated reads %d, want %d", st.BlocksRead, 2*plan.Reads)
	}
	for i, s := range lost {
		if !s.Equal(orig) {
			t.Fatalf("stripe %d rebuilt wrong", i)
		}
	}
}

// TestFacadeMigrationOptions: NewMigrator honours WithWorkers, the
// migrator started with StartContext runs a full conversion, and RunPlan
// propagates ctx cancellation.
func TestFacadeMigrationOptions(t *testing.T) {
	r5, err := NewRAID5Array(4, WithBlockSize(32))
	if err != nil {
		t.Fatal(err)
	}
	const rows = 16
	r := rand.New(rand.NewSource(10))
	want := map[int64][]byte{}
	for L := int64(0); L < rows*3; L++ {
		b := make([]byte, 32)
		r.Read(b)
		want[L] = b
		if err := r5.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	mig, err := NewMigrator(r5, rows, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.StartContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for L, w := range want {
		if err := r6.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d wrong after migration", L)
		}
	}

	// RunPlan under a cancelled context stops before any work.
	plan, err := NewVirtualPlan(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(plan, 32, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunPlan(ctx, ex, WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// And a fresh run completes and verifies.
	ex = NewExecutor(plan, 32, 11)
	if err := RunPlan(context.Background(), ex, WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	if err := ex.VerifyResult(); err != nil {
		t.Fatal(err)
	}
}
