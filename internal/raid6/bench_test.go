package raid6

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/parallel"
)

func benchArray(b *testing.B, stripes int) *Array {
	b.Helper()
	a := New(core.MustNew(7), 4096)
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096)
	for L := int64(0); L < int64(a.DataPerStripe()*stripes); L++ {
		r.Read(buf)
		if err := a.WriteBlock(L, buf); err != nil {
			b.Fatal(err)
		}
	}
	return a
}

func BenchmarkWriteBlockRMW(b *testing.B) {
	a := benchArray(b, 4)
	blocks := int64(a.DataPerStripe() * 4)
	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteBlock(int64(i)%blocks, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteFullStripe(b *testing.B) {
	a := benchArray(b, 4)
	blocks := make([][]byte, a.DataPerStripe())
	r := rand.New(rand.NewSource(4))
	for i := range blocks {
		blocks[i] = make([]byte, 4096)
		r.Read(blocks[i])
	}
	b.SetBytes(int64(len(blocks) * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteStripe(1, blocks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlockHealthy(b *testing.B) {
	a := benchArray(b, 4)
	blocks := int64(a.DataPerStripe() * 4)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ReadBlock(int64(i)%blocks, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlockDegraded(b *testing.B) {
	a := benchArray(b, 4)
	a.Disks().Disk(0).Fail()
	blocks := int64(a.DataPerStripe() * 4)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ReadBlock(int64(i)%blocks, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRebuildDoubleFailure(b *testing.B) {
	const stripes = 4
	a := benchArray(b, stripes)
	bytes := int64(2 * stripes * a.Code().Geometry().Rows * 4096)
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a.Disks().Disk(1).Fail()
		a.Disks().Disk(4).Fail()
		a.Disks().Disk(1).Replace()
		a.Disks().Disk(4).Replace()
		b.StartTimer()
		if err := a.RebuildContext(context.Background(), stripes, []int{1, 4}, parallel.WithWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuildWorkers compares rebuild at several worker counts.
func BenchmarkRebuildWorkers(b *testing.B) {
	const stripes = 32
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a := benchArray(b, stripes)
			bts := int64(2 * stripes * a.Code().Geometry().Rows * 4096)
			b.SetBytes(bts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a.Disks().Disk(1).Fail()
				a.Disks().Disk(4).Fail()
				a.Disks().Disk(1).Replace()
				a.Disks().Disk(4).Replace()
				b.StartTimer()
				if err := a.RebuildContext(context.Background(), stripes, []int{1, 4}, parallel.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
