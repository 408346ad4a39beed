package raid6

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/parallel"
	"code56/internal/telemetry"
)

// fillStripes writes random data blocks to stripes [0, stripes) and returns
// the written blocks keyed by logical index.
func fillStripes(t *testing.T, a *Array, stripes int64, seed int64) map[int64][]byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	want := make(map[int64][]byte)
	blocks := stripes * int64(a.DataPerStripe())
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, a.BlockSize())
		r.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestParallelEncode4096Stripes is the engine's -race workout: a
// 4096-stripe array has all parities regenerated with 8 workers, then every
// stripe is verified and compared against a serially encoded twin. Run
// under `go test -race` (CI does) this exercises the pool, the vdisk locks
// and the telemetry counters concurrently.
func TestParallelEncode4096Stripes(t *testing.T) {
	code, err := core.New(5)
	if err != nil {
		t.Fatal(err)
	}
	const stripes, block = 4096, 64
	par := New(code, block)
	ser := New(code, block)

	// Load identical raw data onto both arrays' data cells without parity
	// maintenance, so EncodeStripes does all the parity work.
	r := rand.New(rand.NewSource(20))
	g := code.Geometry()
	for st := int64(0); st < stripes; st++ {
		for _, c := range par.dataCells {
			b := make([]byte, block)
			r.Read(b)
			addr := st*int64(g.Rows) + int64(c.Row)
			if err := par.Disks().Disk(c.Col).Write(addr, b); err != nil {
				t.Fatal(err)
			}
			if err := ser.Disks().Disk(c.Col).Write(addr, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := par.EncodeStripesContext(context.Background(), stripes, parallel.WithWorkers(8)); err != nil {
		t.Fatal(err)
	}
	if err := ser.EncodeStripesContext(context.Background(), stripes, parallel.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}

	for st := int64(0); st < stripes; st += 97 { // sample across the array
		ok, err := par.VerifyStripe(st)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stripe %d inconsistent after parallel encode", st)
		}
	}
	// Every disk byte must match the serial encode exactly.
	for d := 0; d < par.Disks().Len(); d++ {
		bp := make([]byte, block)
		bs := make([]byte, block)
		for addr := int64(0); addr < stripes*int64(g.Rows); addr += 311 {
			if err := par.Disks().Disk(d).Read(addr, bp); err != nil {
				t.Fatal(err)
			}
			if err := ser.Disks().Disk(d).Read(addr, bs); err != nil {
				t.Fatal(err)
			}
			for i := range bp {
				if bp[i] != bs[i] {
					t.Fatalf("disk %d addr %d differs between parallel and serial encode", d, addr)
				}
			}
		}
	}
}

func TestEncodeStripesContextCancelled(t *testing.T) {
	code, err := core.New(5)
	if err != nil {
		t.Fatal(err)
	}
	a := New(code, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.EncodeStripesContext(ctx, 64, parallel.WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEncodeStripesContextFailures: bulk encode refuses to run with a
// failed disk, like EncodeStripe.
func TestEncodeStripesContextFailures(t *testing.T) {
	a := New(core.MustNew(5), 64)
	fillStripes(t, a, 8, 9)
	a.Disks().Disk(1).Fail()
	if err := a.EncodeStripesContext(context.Background(), 8, parallel.WithWorkers(2)); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
}

// TestEncodeStripesContextTelemetry: a bulk encode counts one stripe
// encode, the code's XORs and one parity update per chain for every
// stripe.
func TestEncodeStripesContextTelemetry(t *testing.T) {
	const stripes = 16
	a := New(core.MustNew(5), 64)
	fillStripes(t, a, stripes, 5)
	a.SetTelemetry(telemetry.NewRegistry(), nil) // count only the encode below
	if err := a.EncodeStripesContext(context.Background(), stripes,
		parallel.WithWorkers(2), parallel.WithBatchBytes(4*int(a.stripeBytes()))); err != nil {
		t.Fatal(err)
	}
	if got := a.tel.stripeEncodes.Value(); got != stripes {
		t.Errorf("stripe_encodes = %d, want %d", got, stripes)
	}
	if got, want := a.tel.xors.Value(), a.encodeXORs*stripes; got != want {
		t.Errorf("xors = %d, want %d", got, want)
	}
	if got, want := a.tel.parityUpdates.Value(), int64(len(a.chains))*stripes; got != want {
		t.Errorf("parity_updates = %d, want %d", got, want)
	}
}

func TestRebuildContextMatchesSerial(t *testing.T) {
	code, err := core.New(7)
	if err != nil {
		t.Fatal(err)
	}
	const stripes = 64
	a := New(code, 128)
	want := fillStripes(t, a, stripes, 21)

	a.Disks().Disk(2).Fail()
	a.Disks().Disk(5).Fail()
	a.Disks().Disk(2).Replace()
	a.Disks().Disk(5).Replace()
	if err := a.RebuildContext(context.Background(), stripes, []int{2, 5}, parallel.WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, a.BlockSize())
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			if buf[i] != w[i] {
				t.Fatalf("block %d wrong after parallel rebuild", L)
			}
		}
	}

	// Too many disks still rejected.
	if err := a.RebuildContext(context.Background(), stripes, []int{0, 1, 2}); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
}

func TestScrubContextMatchesSerialReport(t *testing.T) {
	code, err := core.New(5)
	if err != nil {
		t.Fatal(err)
	}
	const stripes = 48
	a := New(code, 64)
	fillStripes(t, a, stripes, 22)

	// Inject latent errors on a few stripes and silent corruption on others.
	g := code.Geometry()
	for _, st := range []int64{3, 17, 31} {
		a.Disks().Disk(1).InjectLatentError(st * int64(g.Rows))
	}
	for _, st := range []int64{7, 29} {
		buf := make([]byte, 64)
		if err := a.Disks().Disk(2).Read(st*int64(g.Rows)+1, buf); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xFF
		if err := a.Disks().Disk(2).Write(st*int64(g.Rows)+1, buf); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := a.ScrubContextMode(context.Background(), stripes, ScrubRepair, parallel.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentRepaired != 3 {
		t.Errorf("LatentRepaired = %d, want 3", rep.LatentRepaired)
	}
	if rep.CorruptRepaired != 2 {
		t.Errorf("CorruptRepaired = %d, want 2", rep.CorruptRepaired)
	}
	if len(rep.Unrecoverable) != 0 {
		t.Errorf("Unrecoverable = %v, want none", rep.Unrecoverable)
	}
	// A second pass finds a clean array.
	rep, err = a.ScrubContextMode(context.Background(), stripes, ScrubRepair, parallel.WithWorkers(4))
	if err != nil || rep.LatentRepaired != 0 || rep.CorruptRepaired != 0 {
		t.Errorf("second scrub = %+v, %v; want clean", rep, err)
	}
}
