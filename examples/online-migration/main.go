// Online migration: the paper's headline scenario. A 4-disk RAID-5 serves
// a live read/write workload while being converted, in place and online,
// to a 5-disk Code 5-6 RAID-6 (paper Algorithm 2). Afterwards the array
// survives a double disk failure that would have destroyed the RAID-5.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	code56 "code56"
)

const (
	disks     = 4 // p = 5
	stripes   = 64
	blockSize = 4096
)

func main() {
	rows := int64(stripes * (disks + 1 - 1)) // p-1 rows per stripe
	blocks := rows * (disks - 1)

	r5, err := code56.NewRAID5Array(disks, code56.WithBlockSize(blockSize))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	content := make([][]byte, blocks)
	for L := int64(0); L < blocks; L++ {
		b := make([]byte, blockSize)
		rng.Read(b)
		content[L] = b
		if err := r5.WriteBlock(L, b); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("RAID-5 ready: %d disks, %d data blocks\n", disks, blocks)

	mig, err := code56.NewOnlineMigrator(r5, rows)
	if err != nil {
		log.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("conversion started; application keeps running:")

	// A concurrent application mutates the array mid-conversion.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			buf := make([]byte, blockSize)
			for i := 0; i < 300; i++ {
				L := r.Int63n(blocks)
				if r.Intn(2) == 0 {
					if err := mig.Read(L, buf); err != nil {
						log.Fatal(err)
					}
					continue
				}
				b := make([]byte, blockSize)
				r.Read(b)
				mu.Lock()
				if err := mig.Write(L, b); err != nil {
					mu.Unlock()
					log.Fatal(err)
				}
				content[L] = b
				mu.Unlock()
			}
		}(int64(w))
	}
	wg.Wait()
	if err := mig.Wait(); err != nil {
		log.Fatal(err)
	}
	converted, total := mig.Progress()
	fmt.Printf("conversion finished: %d/%d stripes (900 app ops served meanwhile)\n", converted, total)

	r6, err := mig.Result()
	if err != nil {
		log.Fatal(err)
	}
	for st := int64(0); st < stripes; st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil || !ok {
			log.Fatalf("stripe %d inconsistent: %v", st, err)
		}
	}
	fmt.Println("all stripes verified as consistent RAID-6")

	// The payoff: survive the double failure RAID-5 could not.
	r6.Disks().Disk(0).Fail()
	r6.Disks().Disk(2).Fail()
	fmt.Println("disks 0 and 2 failed concurrently...")
	buf := make([]byte, blockSize)
	for L := int64(0); L < blocks; L += 17 {
		row, disk := r5.Locate(L)
		cell := code56.Coord{Row: int(row % int64(disks)), Col: disk}
		if err := r6.ReadCell(row/int64(disks), cell, buf); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, content[L]) {
			log.Fatalf("block %d wrong under double failure", L)
		}
	}
	r6.Disks().Disk(0).Replace()
	r6.Disks().Disk(2).Replace()
	if err := code56.RebuildArray(context.Background(), r6, stripes, []int{0, 2}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("... data served degraded and both disks rebuilt. RAID-6 achieved.")
}
