package parallel

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"code56/internal/xorblk"
)

func TestResolveDefaults(t *testing.T) {
	c := Resolve()
	if c.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS %d", c.Workers, runtime.GOMAXPROCS(0))
	}
	if c.ChunkSize != DefaultChunkSize {
		t.Errorf("default ChunkSize = %d, want %d", c.ChunkSize, DefaultChunkSize)
	}
	c = Resolve(WithWorkers(3), WithChunkSize(512), nil)
	if c.Workers != 3 || c.ChunkSize != 512 {
		t.Errorf("Resolve(WithWorkers(3), WithChunkSize(512)) = %+v", c)
	}
	c = Resolve(WithWorkers(-1), WithChunkSize(0))
	if c.Workers != runtime.GOMAXPROCS(0) || c.ChunkSize != DefaultChunkSize {
		t.Errorf("non-positive options should fall back to defaults, got %+v", c)
	}
	if c.BatchBytes != DefaultBatchBytes {
		t.Errorf("default BatchBytes = %d, want %d", c.BatchBytes, DefaultBatchBytes)
	}
	c = Resolve(WithBatchBytes(4096))
	if c.BatchBytes != 4096 {
		t.Errorf("WithBatchBytes(4096) = %+v", c)
	}
}

func TestForEachBatchCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct {
		workers   int
		itemBytes int64
		batch     int
	}{
		{1, 1024, 64},         // serial, many items per batch
		{4, 1024, 64},         // parallel, many items per batch
		{4, 1 << 21, 1 << 20}, // item bigger than budget: per-item claims
		{4, 0, 0},             // unknown item size: per-item claims
		{16, 3000, 1 << 18},   // non-dividing sizes exercise the tail batch
	} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEachBatch(context.Background(), n, tc.itemBytes, func(i int64) error {
			hits[i].Add(1)
			return nil
		}, WithWorkers(tc.workers), WithBatchBytes(tc.batch))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("%+v: index %d ran %d times", tc, i, got)
			}
		}
	}
}

func TestForEachBatchStopsOnError(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	err := ForEachBatch(context.Background(), 1000, 1024, func(i int64) error {
		ran.Add(1)
		if i == 100 {
			return sentinel
		}
		return nil
	}, WithWorkers(1), WithBatchBytes(64*1024))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Serial execution claims batches in order, so nothing past the failing
	// index runs.
	if got := ran.Load(); got != 101 {
		t.Fatalf("ran %d items before stopping, want 101", got)
	}
}

func TestForEachBatchHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachBatch(ctx, 1000, 1024, func(i int64) error {
		t.Error("fn ran under a cancelled context")
		return nil
	}, WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForEachBatchRangeCoversEveryIndexOnce checks the contiguous range a
// worker claims at once: its span is the number of items that fit the
// batch budget, and the ranges, tail included, cover every index once.
func TestForEachBatchRangeCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct {
		workers   int
		itemBytes int64
		batch     int
		wantSpan  int64 // items per claimed range
	}{
		{1, 1024, 64, 1},         // budget smaller than one item: single-item ranges
		{1, 1024, 64 * 1024, 64}, // serial, many items per range
		{4, 1024, 64 * 1024, 64}, // parallel, many items per range
		{4, 1 << 21, 1 << 20, 1}, // item bigger than budget: single-item ranges
		{4, 0, 0, 1},             // unknown item size: single-item ranges
		{8, 3000, 1 << 18, 87},   // non-dividing sizes exercise the tail range
	} {
		if got := batchItems(tc.itemBytes, Resolve(WithBatchBytes(tc.batch)).BatchBytes); got != tc.wantSpan {
			t.Errorf("%+v: range span %d, want %d", tc, got, tc.wantSpan)
		}
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEachBatch(context.Background(), n, tc.itemBytes, func(i int64) error {
			hits[i].Add(1)
			return nil
		}, WithWorkers(tc.workers), WithBatchBytes(tc.batch))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("%+v: index %d covered %d times", tc, i, got)
			}
		}
	}
}

// TestForEachBatchRangeHonorsContext checks that a cancellation arriving
// inside a claimed range stops the range at the next item, and that an
// empty index space runs nothing.
func TestForEachBatchRangeHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := ForEachBatch(ctx, 1000, 1024, func(i int64) error {
		ran.Add(1)
		if i == 10 {
			cancel()
		}
		return nil
	}, WithWorkers(1), WithBatchBytes(64*1024))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The first range is [0,64); nothing past the cancelling index runs.
	if got := ran.Load(); got != 11 {
		t.Fatalf("ran %d items after cancel inside a range, want 11", got)
	}
	if err := ForEachBatch(context.Background(), 0, 1024, func(i int64) error {
		t.Error("fn ran for an empty index space")
		return nil
	}); err != nil {
		t.Fatalf("n=0: err = %v, want nil", err)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEach(context.Background(), n, func(i int64) error {
			hits[i].Add(1)
			return nil
		}, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := ForEach(context.Background(), 200, func(i int64) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	}, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent workers, bound is %d", p, workers)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	err := ForEach(context.Background(), 10_000, func(i int64) error {
		if i == 5 {
			return boom
		}
		if i > 5 {
			after.Add(1)
		}
		return nil
	}, WithWorkers(4))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Cancellation is prompt: nowhere near all 10k items may run after the
	// failure (each worker may finish only its in-flight item).
	if a := after.Load(); a > 9000 {
		t.Errorf("%d items ran after the error; cancellation did not propagate", a)
	}

	// Serial path: error stops immediately.
	var ran int64
	err = ForEach(context.Background(), 100, func(i int64) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	}, WithWorkers(1))
	if !errors.Is(err, boom) || ran != 4 {
		t.Errorf("serial: err=%v ran=%d, want boom after 4 items", err, ran)
	}
}

func TestForEachHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var once sync.Once
	err := ForEach(ctx, 1_000_000, func(i int64) error {
		ran.Add(1)
		once.Do(cancel)
		return nil
	}, WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r := ran.Load(); r >= 1_000_000 {
		t.Error("cancellation did not stop the loop")
	}

	// Already-cancelled context: nothing runs, even serially.
	err = ForEach(ctx, 10, func(i int64) error { t.Error("fn ran"); return nil }, WithWorkers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	// n <= 0 is a no-op that still reports cancellation state.
	if err := ForEach(context.Background(), 0, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

func TestXorMultiChunkedMatchesKernel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 100, 4096, 200_000, 1<<20 + 37} {
		srcs := make([][]byte, 6)
		for i := range srcs {
			srcs[i] = make([]byte, n)
			r.Read(srcs[i])
		}
		want := make([]byte, n)
		xorblk.XorMulti(want, srcs...)
		got := make([]byte, n)
		ops, err := XorMulti(context.Background(), got, srcs,
			WithWorkers(4), WithChunkSize(4096))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: chunked XorMulti diverges from kernel", n)
		}
		if ops != len(srcs)-1 {
			t.Errorf("n=%d: ops = %d, want %d", n, ops, len(srcs)-1)
		}
	}
}

func TestXorMultiChunkedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]byte, 1<<20)
	if _, err := XorMulti(ctx, dst, [][]byte{make([]byte, 1<<20)},
		WithWorkers(2), WithChunkSize(1024)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
