// Package code56 is a complete implementation of "Code 5-6: An Efficient
// MDS Array Coding Scheme to Accelerate Online RAID Level Migration"
// (Wu, He, Li, Guo — ICPP 2015), together with everything the paper builds
// on or compares against:
//
//   - Code 5-6 itself: an XOR-based MDS RAID-6 array code for p disks
//     (p prime) whose horizontal parities sit exactly where a
//     left-asymmetric RAID-5 keeps them, so converting a RAID-5 to a
//     RAID-6 only adds one disk of diagonal parities;
//   - the comparison codes: RDP, EVENODD, X-Code, P-Code, H-Code, HDP;
//   - RAID-5 (all four layouts) and a generic RAID-6 driver over simulated
//     disks with failure injection;
//   - the migration engine: a conversion planner for all three approaches
//     of the paper (via RAID-0, via RAID-4, direct), an offline executor,
//     an online converter with concurrent application I/O (the paper's
//     Algorithm 2), and virtual-disk support for arbitrary disk counts;
//   - the evaluation harness: the conversion cost model behind the paper's
//     Figures 9–18 and Tables III–IV, and a DiskSim-style trace-driven
//     disk simulator behind Figure 19 and Table V.
//
// # Quick start
//
//	code, _ := code56.New(5)                     // Code 5-6 for 5 disks
//	array := code56.NewRAID6(code, 4096)         // simulated RAID-6 array
//	array.WriteBlock(0, block)                   // parity maintained
//	array.Disks().Disk(1).Fail()                 // two concurrent failures
//	array.Disks().Disk(3).Fail()
//	array.ReadBlock(0, buf)                      // still served
//
// See the examples/ directory for online migration, virtual disks, and
// hybrid recovery walkthroughs, and cmd/ for the tools regenerating the
// paper's tables and figures.
//
// # Options and parallelism
//
// Every facade constructor has an option-based form, and every long-running
// operation has a context-bound form; both converge on one functional
// Option type:
//
//	code, _ := code56.NewCode(13)                          // defaults
//	array := code56.NewRAID6Array(code,
//	        code56.WithBlockSize(64<<10))
//	err := code56.ScrubArray(ctx, array, stripes,
//	        code56.WithWorkers(8))                         // parallel scrub
//	mig, _ := code56.NewMigrator(r5, rows,
//	        code56.WithWorkers(4), code56.WithThrottle(time.Millisecond))
//	err = code56.StartMigration(ctx, mig)                  // cancelable
//
// WithWorkers and WithChunkSize control the stripe engine: independent
// stripes fan out over a bounded worker pool (internal/parallel), and large
// blocks split into chunks for the multi-source XOR kernel. Cancelling the
// context stops cleanly at a stripe boundary; for online migration the
// array stays consistent and resumable. The positional constructors (New,
// NewRAID5, NewRAID6, NewExecutor, NewOnlineMigrator) and serial methods
// (Run, Rebuild, Scrub, Start) are all kept and are equivalent to the
// option forms with WithWorkers(1) and a background context — nothing is
// deprecated; the new forms only add knobs.
package code56

import (
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/raid5"
	"code56/internal/raid6"
	"code56/internal/vdisk"
)

// Core erasure-coding types, re-exported from the internal framework.
type (
	// Code is the interface every array code implements.
	Code = layout.Code
	// Geometry describes a stripe's shape.
	Geometry = layout.Geometry
	// Coord addresses one element: Row within the stripe, Col = disk.
	Coord = layout.Coord
	// Chain is one parity constraint of a code.
	Chain = layout.Chain
	// Kind classifies stripe cells (data or a parity family).
	Kind = layout.Kind
	// Stripe holds the blocks of one stripe.
	Stripe = layout.Stripe
	// ErasureSet tracks lost elements during reconstruction.
	ErasureSet = layout.ErasureSet
	// DecodeStats reports reconstruction work (XORs, distinct reads).
	DecodeStats = layout.DecodeStats
)

// Cell kinds.
const (
	KindData    = layout.Data
	KindParityH = layout.ParityH
	KindParityD = layout.ParityD
	KindParityA = layout.ParityA
)

// Code 5-6 types.
type (
	// Code56 is the paper's code; it implements Code and adds the
	// reconstruction algorithms of §III and the hybrid recovery of
	// §III-E-4.
	Code56 = core.Code56
	// Orientation selects which RAID-5 parity rotation the layout
	// mirrors (paper Fig. 7).
	Orientation = core.Orientation
	// RecoveryPlan is a read-minimizing single-disk rebuild plan.
	RecoveryPlan = core.RecoveryPlan
)

// Orientations.
const (
	Left  = core.Left
	Right = core.Right
)

// New returns Code 5-6 for p disks, p prime (left orientation).
func New(p int) (*Code56, error) { return core.New(p) }

// NewOriented returns Code 5-6 with an explicit orientation.
func NewOriented(p int, o Orientation) (*Code56, error) { return core.NewOriented(p, o) }

// Stripe-level operations, re-exported for users driving codes directly.
var (
	// NewStripe allocates a zeroed stripe.
	NewStripe = layout.NewStripe
	// Encode computes every parity of a stripe; returns the XOR count.
	Encode = layout.Encode
	// Verify checks all parity chains of a stripe.
	Verify = layout.Verify
	// Reconstruct recovers an erasure set in place (peeling with a GF(2)
	// elimination fallback).
	Reconstruct = layout.Reconstruct
	// EraseColumns zeroes whole columns and returns the erasure set.
	EraseColumns = layout.EraseColumns
	// IsPrime reports primality (codes need a prime parameter).
	IsPrime = layout.IsPrime
	// NextPrime returns the smallest prime greater than its argument.
	NextPrime = layout.NextPrime
)

// Simulated block-device substrate.
type (
	// Disk is an in-memory block device with failure injection.
	Disk = vdisk.Disk
	// DiskArray is an ordered set of disks supporting add/remove.
	DiskArray = vdisk.Array
	// DiskStats counts a disk's I/O.
	DiskStats = vdisk.Stats
	// FaultConfig is a deterministic, seeded fault-injection scenario:
	// transient read/write errors, latent-sector-error discovery, and a
	// scheduled whole-disk failure. Arm it with DiskArray.SetFaults or the
	// WithFaults option; replaying the same config against the same I/O
	// sequence reproduces the same faults.
	FaultConfig = vdisk.FaultConfig
)

// Disk-fault sentinels, matchable with errors.Is through every layer.
var (
	// ErrDiskFailed marks I/O against a fail-stopped disk (Fail or a
	// scheduled FaultConfig failure); cleared by Replace.
	ErrDiskFailed = vdisk.ErrFailed
	// ErrLatentSector marks a read of a block with a latent sector error;
	// rewriting the block clears it (sector remap semantics).
	ErrLatentSector = vdisk.ErrLatent
	// ErrTransientIO marks a transiently failed I/O; retrying may succeed
	// (see WithRetry / DiskArray.SetRetry).
	ErrTransientIO = vdisk.ErrTransient
)

// RAID layers.
type (
	// RAID5 is a RAID-5 array over simulated disks.
	RAID5 = raid5.Array
	// RAID5Layout selects the RAID-5 parity rotation.
	RAID5Layout = raid5.Layout
	// RAID6 is a RAID-6 array over any Code.
	RAID6 = raid6.Array
)

// RAID-5 layouts (md naming).
const (
	LeftAsymmetric  = raid5.LeftAsymmetric
	LeftSymmetric   = raid5.LeftSymmetric
	RightAsymmetric = raid5.RightAsymmetric
	RightSymmetric  = raid5.RightSymmetric
)

// NewRAID5 creates a RAID-5 array of m fresh simulated disks.
func NewRAID5(m, blockSize int, l RAID5Layout) (*RAID5, error) {
	return raid5.New(m, blockSize, l)
}

// WrapRAID5 builds a RAID-5 view over existing disks (e.g. ones a
// migration has already grown); extra disks beyond the first m are left
// untouched.
func WrapRAID5(disks *DiskArray, m int, l RAID5Layout) (*RAID5, error) {
	return raid5.Wrap(disks, m, l)
}

// NewRAID6 creates a RAID-6 array over fresh simulated disks for the code.
func NewRAID6(code Code, blockSize int) *RAID6 { return raid6.New(code, blockSize) }

// WrapRAID6 builds a RAID-6 view over existing disks (e.g. after a
// migration).
func WrapRAID6(code Code, disks *DiskArray) (*RAID6, error) { return raid6.Wrap(code, disks) }
