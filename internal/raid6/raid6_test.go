package raid6

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/vdisk"

	hcodepkg "code56/internal/codes/hcode"
)

func codesUnderTest() []layout.Code {
	return []layout.Code{
		core.MustNew(5),
		rdp.MustNew(5),
		evenodd.MustNew(5),
		xcode.MustNew(5),
		hcodepkg.MustNew(5),
		hdp.MustNew(7),
		pcode.MustNew(7, pcode.VariantPMinus1),
	}
}

func fillRandom(t *testing.T, a *Array, stripes int, r *rand.Rand) map[int64][]byte {
	t.Helper()
	want := make(map[int64][]byte)
	n := int64(a.DataPerStripe() * stripes)
	for L := int64(0); L < n; L++ {
		b := make([]byte, a.BlockSize())
		r.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func checkAll(t *testing.T, a *Array, want map[int64][]byte, ctx string) {
	t.Helper()
	buf := make([]byte, a.BlockSize())
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatalf("%s: read %d: %v", ctx, L, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("%s: block %d mismatch", ctx, L)
		}
	}
}

func TestRoundTripAndConsistency(t *testing.T) {
	for _, code := range codesUnderTest() {
		a := New(code, 16)
		want := fillRandom(t, a, 3, rand.New(rand.NewSource(1)))
		checkAll(t, a, want, code.Name())
		for st := int64(0); st < 3; st++ {
			ok, err := a.VerifyStripe(st)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s: stripe %d inconsistent after writes", code.Name(), st)
			}
		}
	}
}

func TestDegradedReadSingleAndDouble(t *testing.T) {
	for _, code := range codesUnderTest() {
		a := New(code, 16)
		want := fillRandom(t, a, 2, rand.New(rand.NewSource(2)))
		a.Disks().Disk(0).Fail()
		checkAll(t, a, want, code.Name()+" single-degraded")
		a.Disks().Disk(2).Fail()
		checkAll(t, a, want, code.Name()+" double-degraded")
	}
}

func TestTripleFailureFails(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 16)
	fillRandom(t, a, 1, rand.New(rand.NewSource(3)))
	for _, d := range []int{0, 1, 2} {
		a.Disks().Disk(d).Fail()
	}
	buf := make([]byte, 16)
	if err := a.ReadBlock(0, buf); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("triple failure read: %v", err)
	}
}

func TestDegradedWriteThenRebuild(t *testing.T) {
	for _, code := range codesUnderTest() {
		a := New(code, 16)
		want := fillRandom(t, a, 2, rand.New(rand.NewSource(4)))
		a.Disks().Disk(1).Fail()
		a.Disks().Disk(3).Fail()
		r := rand.New(rand.NewSource(5))
		for L := int64(0); L < int64(len(want)); L += 3 {
			b := make([]byte, 16)
			r.Read(b)
			want[L] = b
			if err := a.WriteBlock(L, b); err != nil {
				t.Fatalf("%s: degraded write: %v", code.Name(), err)
			}
		}
		checkAll(t, a, want, code.Name()+" after degraded writes")
		a.Disks().Disk(1).Replace()
		a.Disks().Disk(3).Replace()
		if err := a.RebuildContext(context.Background(), 2, []int{1, 3}); err != nil {
			t.Fatalf("%s: rebuild: %v", code.Name(), err)
		}
		checkAll(t, a, want, code.Name()+" after rebuild")
		for st := int64(0); st < 2; st++ {
			ok, err := a.VerifyStripe(st)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s: stripe %d inconsistent after rebuild", code.Name(), st)
			}
		}
	}
}

func TestRebuildRejectsTooMany(t *testing.T) {
	a := New(core.MustNew(5), 16)
	if err := a.RebuildContext(context.Background(), 1, []int{0, 1, 2}); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("Rebuild of 3 columns: %v", err)
	}
}

// TestRMWIOProfile asserts the optimal-update-complexity I/O pattern for
// Code 5-6: a healthy-array block update touches exactly the data disk and
// the two parity disks of its chains (paper §III-E-3).
func TestRMWIOProfile(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 16)
	fillRandom(t, a, 1, rand.New(rand.NewSource(6)))
	logical := int64(3)
	_, cell := a.Locate(logical)
	expect := map[int]bool{cell.Col: true}
	for _, ci := range layout.ChainsCovering(code, cell) {
		expect[code.Chains()[ci].Parity.Col] = true
	}
	if len(expect) != 3 {
		t.Fatalf("expected 3 distinct disks, got %v", expect)
	}
	a.Disks().ResetStats()
	if err := a.WriteBlock(logical, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Disks().Len(); i++ {
		s := a.Disks().Disk(i).Stats()
		if expect[i] {
			if s.Reads != 1 || s.Writes != 1 {
				t.Errorf("disk %d: %+v, want 1r/1w", i, s)
			}
		} else if s.Total() != 0 {
			t.Errorf("disk %d touched unexpectedly: %+v", i, s)
		}
	}
}

func TestEncodeStripe(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 16)
	// Write data cells directly (bypassing parity maintenance), then
	// encode the stripe wholesale.
	r := rand.New(rand.NewSource(7))
	for L := int64(0); L < int64(a.DataPerStripe()); L++ {
		st, cell := a.Locate(L)
		b := make([]byte, 16)
		r.Read(b)
		if err := a.Disks().Disk(cell.Col).Write(st*int64(code.Geometry().Rows)+int64(cell.Row), b); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := a.VerifyStripe(0); ok {
		t.Fatal("stripe should be inconsistent before encode")
	}
	if err := a.EncodeStripe(0); err != nil {
		t.Fatal(err)
	}
	ok, err := a.VerifyStripe(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stripe inconsistent after EncodeStripe")
	}
}

func TestWrapValidatesDiskCount(t *testing.T) {
	if _, err := Wrap(core.MustNew(5), vdisk.NewArray(3, 16)); err == nil {
		t.Fatal("Wrap with wrong disk count accepted")
	}
	if _, err := Wrap(core.MustNew(5), vdisk.NewArray(5, 16)); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRejectsBadSize(t *testing.T) {
	a := New(core.MustNew(5), 16)
	if err := a.WriteBlock(0, make([]byte, 4)); err == nil {
		t.Fatal("short write accepted")
	}
}
