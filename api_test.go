package code56

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// TestPublicQuickstart walks the README quick-start through the public API:
// encode, double failure, recovery.
func TestPublicQuickstart(t *testing.T) {
	code, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	array, err := NewRAID6Array(code, WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	want := map[int64][]byte{}
	for L := int64(0); L < int64(array.DataPerStripe()*2); L++ {
		b := make([]byte, 512)
		r.Read(b)
		want[L] = b
		if err := array.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	array.Disks().Disk(1).Fail()
	array.Disks().Disk(3).Fail()
	buf := make([]byte, 512)
	for L, w := range want {
		if err := array.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d wrong under double failure", L)
		}
	}
}

// TestPublicMigration drives the online migration through the public API
// and downgrades back.
func TestPublicMigration(t *testing.T) {
	r5, err := NewRAID5Array(4, WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(bytes.Repeat([]byte("x"), 512))
	for L := int64(0); L < 24; L++ {
		if err := r5.WriteBlock(L, data); err != nil {
			t.Fatal(err)
		}
	}
	mig, err := NewOnlineMigrator(r5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r6.VerifyStripe(0)
	if err != nil || !ok {
		t.Fatalf("stripe 0 verify: %v %v", ok, err)
	}
	if err := Downgrade(r6); err != nil {
		t.Fatal(err)
	}
	if r5.Disks().Len() != 4 {
		t.Fatalf("disks after downgrade: %d", r5.Disks().Len())
	}
}

// TestPublicPlansAndCodes smoke-tests the planner facade and every
// comparison-code constructor.
func TestPublicPlansAndCodes(t *testing.T) {
	plan, err := NewVirtualPlan(5, LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.Metrics()
	if m.InvalidParityRatio != 0 || m.MigrationRatio != 0 {
		t.Error("Code 5-6 virtual plan should not invalidate or migrate")
	}
	ex := NewExecutor(plan, 64, 1)
	if err := RunPlan(context.Background(), ex); err != nil {
		t.Fatal(err)
	}
	if err := ex.VerifyResult(); err != nil {
		t.Fatal(err)
	}

	if len(StandardConversions(7)) == 0 {
		t.Error("no standard conversions at n=7")
	}

	type ctor struct {
		name string
		mk   func() (Code, error)
	}
	for _, c := range []ctor{
		{"rdp", func() (Code, error) { return NewRDP(5) }},
		{"evenodd", func() (Code, error) { return NewEVENODD(5) }},
		{"xcode", func() (Code, error) { return NewXCode(5) }},
		{"hcode", func() (Code, error) { return NewHCode(5) }},
		{"hdp", func() (Code, error) { return NewHDP(5) }},
		{"pcode", func() (Code, error) { return NewPCode(5) }},
		{"pcode-p", func() (Code, error) { return NewPCodeP(5) }},
	} {
		code, err := c.mk()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := NewStripe(code.Geometry(), 16)
		s.FillRandom(code, rand.New(rand.NewSource(2)))
		Encode(code, s)
		if !Verify(code, s) {
			t.Fatalf("%s: verify failed", c.name)
		}
		orig := s.Clone()
		es := EraseColumns(s, 0, 1)
		if _, err := Reconstruct(code, s, es); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !s.Equal(orig) {
			t.Fatalf("%s: wrong reconstruction", c.name)
		}
	}

	if !IsPrime(7) || IsPrime(9) || NextPrime(7) != 11 {
		t.Error("prime helpers wrong")
	}
	if eff := Code56StorageEfficiency(4); eff != 0.6 {
		t.Errorf("efficiency(4) = %v", eff)
	}
}

// TestPublicRecoveryAndScrub exercises the maintenance facade: optimized
// column recovery planning and array scrubbing with rotation.
func TestPublicRecoveryAndScrub(t *testing.T) {
	code, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanColumnRecovery(code, 1)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ConventionalRecoveryReads(code, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reads != 9 || conv != 12 {
		t.Errorf("recovery reads %d/%d, want 9/12", plan.Reads, conv)
	}

	a, err := NewRAID6Array(code, WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetRotation(true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for L := int64(0); L < int64(a.DataPerStripe()*2); L++ {
		if err := a.WriteBlock(L, buf); err != nil {
			t.Fatal(err)
		}
	}
	a.Disks().Disk(0).InjectLatentError(1)
	rep, err := ScrubArrayMode(context.Background(), a, 2, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentRepaired != 1 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("scrub report %+v", rep)
	}
}

// TestPublicArrayPersistence round-trips an array through its directory,
// the one on-disk form: build file-backed, close, reopen.
func TestPublicArrayPersistence(t *testing.T) {
	dir := t.TempDir()
	code, _ := New(5)
	a, err := NewRAID6Array(code, WithBackend("file:"+dir), WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	b := bytes.Repeat([]byte{7}, 64)
	if err := a.WriteBlock(0, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenRAID6Array(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Disks().Close()
	if restored.Code().Name() != "code56" {
		t.Fatalf("reopened as %s", restored.Code().Name())
	}
	out := make([]byte, 64)
	if err := restored.ReadBlock(0, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, b) {
		t.Fatal("contents lost")
	}
}

// TestPublicMiscFacade covers the remaining facade surface.
func TestPublicMiscFacade(t *testing.T) {
	if _, err := NewOriented(5, Right); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOriented(4, Left); err == nil {
		t.Error("non-prime accepted")
	}
	code, _ := New(5)
	if k := code.Kind(0, 4); k != KindParityD {
		t.Errorf("Kind(0,4) = %v", k)
	}
	if k := code.Kind(0, 0); k != KindData {
		t.Errorf("Kind(0,0) = %v", k)
	}
	a, err := NewRAID6Array(code, WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	w, err := WrapRAID6(code, a.Disks())
	if err != nil {
		t.Fatal(err)
	}
	if w.Code().Name() != "code56" {
		t.Error("wrapped array lost its code")
	}
	r5, err := NewRAID5Array(4, WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WrapRAID5(r5.Disks(), 4, LeftAsymmetric); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(Conversion{M: 4, SourceLayout: LeftAsymmetric, Code: code, Approach: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Conv.Approach != Direct || ViaRAID0 == ViaRAID4 {
		t.Error("approach constants wrong")
	}
}
