package raid6

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// TestDegradedReadFastPath: with a single failed disk every degraded read
// must be served by the one-chain fast path (horizontal first, the paper's
// p-3 XOR bound) rather than whole-stripe reconstruction.
func TestDegradedReadFastPath(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(core.MustNew(5), 16)
	a.SetTelemetry(reg, nil)
	want := fillRandom(t, a, 2, rand.New(rand.NewSource(31)))
	a.Disks().Disk(1).Fail()
	checkAll(t, a, want, "single failure")

	c := reg.Snapshot().Counters
	if c["raid6.degraded_reads"] == 0 {
		t.Fatal("no degraded reads recorded")
	}
	if c["raid6.degraded_fast_path"] != c["raid6.degraded_reads"] {
		t.Fatalf("fast path served %d of %d degraded reads; single-failure reads must all take one chain",
			c["raid6.degraded_fast_path"], c["raid6.degraded_reads"])
	}
}

// TestDegradedReadDoubleFailureFallsBack: with two failed disks some cells
// have no fully-readable chain, so reads fall back to the full decoder —
// and still succeed.
func TestDegradedReadDoubleFailureFallsBack(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(core.MustNew(5), 16)
	a.SetTelemetry(reg, nil)
	want := fillRandom(t, a, 2, rand.New(rand.NewSource(32)))
	a.Disks().Disk(0).Fail()
	a.Disks().Disk(3).Fail()
	checkAll(t, a, want, "double failure")

	c := reg.Snapshot().Counters
	if c["raid6.degraded_fast_path"] >= c["raid6.degraded_reads"] {
		t.Fatalf("every double-failure read claims the fast path (%d of %d); expected full-decoder fallbacks",
			c["raid6.degraded_fast_path"], c["raid6.degraded_reads"])
	}
}

// TestReadSurvivesTransientErrors: a transient error that outlives the
// disk's retry budget is served by reconstruction instead of surfacing.
func TestReadSurvivesTransientErrors(t *testing.T) {
	a := New(core.MustNew(5), 16)
	want := fillRandom(t, a, 2, rand.New(rand.NewSource(33)))
	err := a.Disks().Disk(2).SetFaults(vdisk.FaultConfig{Seed: 4, ReadTransientProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	checkAll(t, a, want, "transient faults")
}

// TestScrubCheckModeDetectsWithoutWriting: ScrubCheck counts the damage
// but leaves it in place; ScrubRepair then fixes it; a final check pass is
// clean.
func TestScrubCheckModeDetectsWithoutWriting(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(core.MustNew(5), 16)
	a.SetTelemetry(reg, nil)
	want := fillRandom(t, a, 4, rand.New(rand.NewSource(34)))

	// One latent error in stripe 0, one silent corruption in stripe 2.
	a.Disks().Disk(1).InjectLatentError(0)
	garbage := make([]byte, 16)
	rand.New(rand.NewSource(35)).Read(garbage)
	rows := int64(a.Code().Geometry().Rows)
	if err := a.Disks().Disk(3).Write(2*rows+1, garbage); err != nil {
		t.Fatal(err)
	}

	check, err := a.ScrubContextMode(context.Background(), 4, ScrubCheck)
	if err != nil {
		t.Fatal(err)
	}
	if check.LatentFound != 1 || check.CorruptFound != 1 {
		t.Fatalf("check pass found %d latent, %d corrupt; want 1 and 1 (%+v)",
			check.LatentFound, check.CorruptFound, check)
	}
	if check.LatentRepaired != 0 || check.CorruptRepaired != 0 {
		t.Fatalf("check pass wrote to the array: %+v", check)
	}
	if check.Clean() {
		t.Fatal("report with findings claims Clean")
	}
	// The damage is still there.
	buf := make([]byte, 16)
	if err := a.Disks().Disk(1).Read(0, buf); !errors.Is(err, vdisk.ErrLatent) {
		t.Fatalf("latent error healed by a check-mode scrub: %v", err)
	}
	if c := reg.Snapshot().Counters["raid6.scrub_repairs"]; c != 0 {
		t.Fatalf("scrub_repairs = %d after check-only pass", c)
	}

	rep, err := a.ScrubContextMode(context.Background(), 4, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentRepaired != 1 || rep.CorruptRepaired != 1 {
		t.Fatalf("repair pass fixed %d latent, %d corrupt; want 1 and 1",
			rep.LatentRepaired, rep.CorruptRepaired)
	}
	if c := reg.Snapshot().Counters["raid6.scrub_repairs"]; c != 2 {
		t.Fatalf("scrub_repairs = %d, want 2", c)
	}

	final, err := a.ScrubContextMode(context.Background(), 4, ScrubCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Clean() {
		t.Fatalf("array dirty after repair: %+v", final)
	}
	checkAll(t, a, want, "after scrub repair")
}

// scrubSerial is the reference scrub ScrubContextMode is checked against:
// an independent in-order loop over scrubStripe, with no worker pool.
func scrubSerial(a *Array, stripes int64, mode ScrubMode) (ScrubReport, error) {
	rep := ScrubReport{Stripes: stripes}
	for st := int64(0); st < stripes; st++ {
		res, err := a.scrubStripe(st, mode == ScrubRepair)
		rep.add(st, res)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// TestScrubContextModeMatchesSerial: the parallel check-mode scrub produces
// the same report as the serial reference.
func TestScrubContextModeMatchesSerial(t *testing.T) {
	build := func() *Array {
		a := New(core.MustNew(5), 16)
		fillRandom(t, a, 6, rand.New(rand.NewSource(36)))
		a.Disks().Disk(0).InjectLatentError(3)
		a.Disks().Disk(2).InjectLatentError(9)
		return a
	}
	serial, err := scrubSerial(build(), 6, ScrubCheck)
	if err != nil {
		t.Fatal(err)
	}
	par, err := build().ScrubContextMode(context.Background(), 6, ScrubCheck)
	if err != nil {
		t.Fatal(err)
	}
	if serial.LatentFound != par.LatentFound || serial.CorruptFound != par.CorruptFound ||
		len(serial.Unrecoverable) != len(par.Unrecoverable) {
		t.Fatalf("parallel report %+v diverges from serial %+v", par, serial)
	}
	if serial.LatentFound != 2 {
		t.Fatalf("LatentFound = %d, want 2", serial.LatentFound)
	}
}
