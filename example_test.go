package code56_test

import (
	"fmt"
	"log"
	"math/rand"

	code56 "code56"
)

// The shortest possible tour: encode a stripe, lose two disks, recover
// with the paper's Algorithm 1.
func ExampleNew() {
	code, err := code56.New(5)
	if err != nil {
		log.Fatal(err)
	}
	stripe := code56.NewStripe(code.Geometry(), 64)
	stripe.FillRandom(code, rand.New(rand.NewSource(1)))
	code56.Encode(code, stripe)
	original := stripe.Clone()

	stripe.ZeroColumn(1)
	stripe.ZeroColumn(3)
	stats, err := code.ReconstructDouble(stripe, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered blocks:", stats.Recovered)
	fmt.Println("intact:", stripe.Equal(original))
	// Output:
	// recovered blocks: 8
	// intact: true
}

// Online migration of a live RAID-5 to a Code 5-6 RAID-6 (the paper's
// Algorithm 2), then a double failure the old array could not survive.
func ExampleNewOnlineMigrator() {
	r5, err := code56.NewRAID5Array(4, code56.WithBlockSize(512))
	if err != nil {
		log.Fatal(err)
	}
	const rows = 8 // 2 Code 5-6 stripes at p = 5
	block := make([]byte, 512)
	for L := int64(0); L < rows*3; L++ {
		if err := r5.WriteBlock(L, block); err != nil {
			log.Fatal(err)
		}
	}

	mig, err := code56.NewOnlineMigrator(r5, rows)
	if err != nil {
		log.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		log.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		log.Fatal(err)
	}
	r6, err := mig.Result()
	if err != nil {
		log.Fatal(err)
	}

	r6.Disks().Disk(0).Fail()
	r6.Disks().Disk(2).Fail()
	ok := true
	buf := make([]byte, 512)
	for st := int64(0); st < 2; st++ {
		for r := 0; r < 4; r++ {
			for c := 0; c < 5; c++ {
				if err := r6.ReadCell(st, code56.Coord{Row: r, Col: c}, buf); err != nil {
					ok = false
				}
			}
		}
	}
	fmt.Println("all cells served under double failure:", ok)
	// Output:
	// all cells served under double failure: true
}

// Planning a conversion and reading the paper's cost metrics off it.
func ExampleNewVirtualPlan() {
	plan, err := code56.NewVirtualPlan(4, code56.LeftAsymmetric) // p = 5, no padding
	if err != nil {
		log.Fatal(err)
	}
	m := plan.Metrics()
	fmt.Printf("new parities per data block: %.3f\n", m.NewParityRatio)
	fmt.Printf("total I/O per data block:   %.3f\n", m.TotalIORatio)
	fmt.Printf("old parities touched:       %.0f\n", m.InvalidParityRatio+m.MigrationRatio)
	// Output:
	// new parities per data block: 0.333
	// total I/O per data block:   1.333
	// old parities touched:       0
}

// Read-minimizing single-disk recovery for any code (§III-E-4).
func ExamplePlanColumnRecovery() {
	code, _ := code56.New(5)
	plan, _ := code56.PlanColumnRecovery(code, 1)
	conventional, _ := code56.ConventionalRecoveryReads(code, 1)
	fmt.Printf("reads: %d hybrid vs %d conventional\n", plan.Reads, conventional)
	// Output:
	// reads: 9 hybrid vs 12 conventional
}
