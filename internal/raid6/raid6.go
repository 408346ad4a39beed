// Package raid6 implements a RAID-6 array driver over any layout.Code: it
// maps logical data blocks onto stripes of the code's geometry, maintains
// parities on writes, serves degraded reads under one or two disk failures,
// and rebuilds replaced disks. The migration engine produces arrays driven
// by this package (with Code 5-6 as the code) from RAID-5 arrays.
package raid6

import (
	"errors"
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// ErrTooManyFailures is returned when an operation needs more surviving
// columns than are available.
var ErrTooManyFailures = errors.New("raid6: failures exceed fault tolerance")

// Array is a RAID-6 array using an erasure code over vdisk-backed disks.
// Disk i of the array stores column i of every stripe; stripe s occupies
// disk blocks [s*Rows, (s+1)*Rows).
type Array struct {
	code      layout.Code
	disks     *vdisk.Array
	blockSize int
	geom      layout.Geometry
	dataCells []layout.Coord
	rotate    bool
	tel       tel
	// encodeXORs is the XOR count of one full-stripe encode: for each
	// chain, members fold into the parity with len(Covers)-1 XORs.
	encodeXORs int64

	// The fields below are derived caches that keep the per-stripe hot
	// paths allocation-free: the code's chains and per-cell covering-chain
	// indices are resolved once (Code.Chains may rebuild its slice per
	// call and layout.ChainsCovering allocates), the encoder carries the
	// pre-resolved chain order plus pooled scratch, and stripes for
	// load/encode/scrub cycles are recycled instead of allocated.
	chains   []layout.Chain
	covering [][]int // chain indices covering cell i (geom.Index order)
	enc      *layout.Encoder
	stripes  *layout.StripePool
}

// tel holds the array's bound telemetry instruments (see README
// "Telemetry" for the metric reference).
type tel struct {
	tr            *telemetry.Tracer
	blockReads    *telemetry.Counter // ReadBlock/ReadCell calls served
	blockWrites   *telemetry.Counter // WriteBlock calls served
	degradedReads *telemetry.Counter // reads answered by reconstruction
	degradedFast  *telemetry.Counter // degraded reads served by one chain
	parityUpdates *telemetry.Counter // parity cells written
	xors          *telemetry.Counter // block XOR operations
	stripeEncodes *telemetry.Counter // full-stripe parity generations
	rebuilt       *telemetry.Counter // blocks rebuilt onto replaced disks
	scrubRepairs  *telemetry.Counter // blocks rewritten by scrub repair
}

func bindTel(reg *telemetry.Registry, tr *telemetry.Tracer) tel {
	return tel{
		tr:            tr,
		blockReads:    reg.Counter("raid6.block_reads"),
		blockWrites:   reg.Counter("raid6.block_writes"),
		degradedReads: reg.Counter("raid6.degraded_reads"),
		degradedFast:  reg.Counter("raid6.degraded_fast_path"),
		parityUpdates: reg.Counter("raid6.parity_updates"),
		xors:          reg.Counter("raid6.xors"),
		stripeEncodes: reg.Counter("raid6.stripe_encodes"),
		rebuilt:       reg.Counter("raid6.blocks_rebuilt"),
		scrubRepairs:  reg.Counter("raid6.scrub_repairs"),
	}
}

func encodeXORCount(code layout.Code) int64 {
	var n int64
	for _, ch := range code.Chains() {
		if len(ch.Covers) > 1 {
			n += int64(len(ch.Covers) - 1)
		}
	}
	return n
}

// New creates a RAID-6 array for the code over fresh disks.
func New(code layout.Code, blockSize int) *Array {
	g := code.Geometry()
	return newArray(code, vdisk.NewArray(g.Cols, blockSize), blockSize)
}

// newArray builds an Array and its derived hot-path caches.
func newArray(code layout.Code, disks *vdisk.Array, blockSize int) *Array {
	g := code.Geometry()
	covering := make([][]int, g.Elements())
	for r := 0; r < g.Rows; r++ {
		for j := 0; j < g.Cols; j++ {
			c := layout.Coord{Row: r, Col: j}
			covering[g.Index(c)] = layout.ChainsCovering(code, c)
		}
	}
	return &Array{
		code:       code,
		disks:      disks,
		blockSize:  blockSize,
		geom:       g,
		dataCells:  layout.DataElements(code),
		tel:        bindTel(nil, nil),
		encodeXORs: encodeXORCount(code),
		chains:     code.Chains(),
		covering:   covering,
		enc:        layout.NewEncoder(code),
		stripes:    layout.NewStripePool(g, blockSize),
	}
}

// SetTelemetry rebinds the array's counters and tracer (and those of the
// underlying disks). Pass nil for either argument to use the process-wide
// defaults.
func (a *Array) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	a.tel = bindTel(reg, tr)
	a.disks.SetTelemetry(reg, tr)
}

// Wrap builds an Array over an existing disk array (used by the migration
// engine after a conversion completes). The disk array must have exactly
// Geometry().Cols disks.
func Wrap(code layout.Code, disks *vdisk.Array) (*Array, error) {
	g := code.Geometry()
	if disks.Len() != g.Cols {
		return nil, fmt.Errorf("raid6: %d disks for a %d-column code", disks.Len(), g.Cols)
	}
	return newArray(code, disks, disks.BlockSize()), nil
}

// Code returns the erasure code in use.
func (a *Array) Code() layout.Code { return a.code }

// Disks exposes the underlying disk array.
func (a *Array) Disks() *vdisk.Array { return a.disks }

// BlockSize returns the block size in bytes.
func (a *Array) BlockSize() int { return a.blockSize }

// DataPerStripe returns the number of logical data blocks per stripe.
func (a *Array) DataPerStripe() int { return len(a.dataCells) }

// Locate maps a logical data block to its stripe index and cell coordinate.
//
//c56:noalloc
func (a *Array) Locate(logical int64) (stripe int64, cell layout.Coord) {
	n := int64(len(a.dataCells))
	return logical / n, a.dataCells[logical%n]
}

// blockAddr returns the disk block address of cell c in stripe s.
//
//c56:noalloc
func (a *Array) blockAddr(stripe int64, c layout.Coord) int64 {
	return stripe*int64(a.geom.Rows) + int64(c.Row)
}

// readCell reads one cell into buf directly from its disk (honoring the
// per-stripe rotation when enabled).
//
//c56:noalloc
func (a *Array) readCell(stripe int64, c layout.Coord, buf []byte) error {
	return a.diskFor(stripe, c.Col).Read(a.blockAddr(stripe, c), buf)
}

// writeCell writes one cell.
//
//c56:noalloc
func (a *Array) writeCell(stripe int64, c layout.Coord, data []byte) error {
	return a.diskFor(stripe, c.Col).Write(a.blockAddr(stripe, c), data)
}

// failedColumns returns the failed disk indices.
//
//c56:noalloc
func (a *Array) failedColumns() []int {
	var f []int
	for i := 0; i < a.geom.Cols; i++ {
		if a.disks.Disk(i).Failed() {
			f = append(f, i) //lint:allow noalloc enumerating failures allocates only when disks are down
		}
	}
	return f
}

// loadStripe reads every cell of stripe s from non-failed disks and returns
// the stripe plus the erasure set of unreadable cells. The stripe comes from
// the array's pool — callers hand it back with a.stripes.Put when done. The
// erasure set is nil while the stripe is fully readable, so the healthy path
// allocates nothing.
//
//c56:noalloc
func (a *Array) loadStripe(stripe int64) (*layout.Stripe, layout.ErasureSet, error) {
	s := a.stripes.Get()
	var es layout.ErasureSet
	for r := 0; r < a.geom.Rows; r++ {
		for j := 0; j < a.geom.Cols; j++ {
			c := layout.Coord{Row: r, Col: j}
			err := a.readCell(stripe, c, s.Block(c))
			switch {
			case err == nil:
			case isDegradable(err):
				s.Zero(c)
				if es == nil {
					es = make(layout.ErasureSet) //lint:allow noalloc erasure bookkeeping exists only once cells are unreadable
				}
				es[c] = true //lint:allow noalloc erasure bookkeeping exists only once cells are unreadable
			default:
				a.stripes.Put(s)
				return nil, nil, err
			}
		}
	}
	return s, es, nil
}

// isDegradable reports whether a read error can be served by
// reconstruction: fail-stopped disks, latent sector errors, and transient
// faults that survived the disk's retry policy.
//
//c56:noalloc
func isDegradable(err error) bool {
	return errors.Is(err, vdisk.ErrFailed) || errors.Is(err, vdisk.ErrLatent) ||
		errors.Is(err, vdisk.ErrTransient)
}

// ReadBlock reads logical data block L, reconstructing if the holding disk
// (or a needed block) is unavailable. A single unreadable cell is rebuilt
// through one parity chain — horizontal first (see degradedRead); wider
// damage falls back to whole-stripe reconstruction.
//
//c56:noalloc
func (a *Array) ReadBlock(logical int64, buf []byte) error {
	a.tel.blockReads.Inc()
	stripe, cell := a.Locate(logical)
	err := a.readCell(stripe, cell, buf)
	if err == nil {
		return nil
	}
	if !isDegradable(err) {
		return err
	}
	return a.degradedRead(stripe, cell, buf)
}

// ReadCell reads an arbitrary stripe cell (data or parity), reconstructing
// if the cell's disk is unavailable. Migration tooling uses it to serve
// RAID-5-addressed blocks through the RAID-6 redundancy.
func (a *Array) ReadCell(stripe int64, cell layout.Coord, buf []byte) error {
	a.tel.blockReads.Inc()
	err := a.readCell(stripe, cell, buf)
	if err == nil {
		return nil
	}
	if !isDegradable(err) {
		return err
	}
	return a.degradedRead(stripe, cell, buf)
}

// degradedRead serves a read whose direct cell access failed. It first
// tries to rebuild the single cell through one parity chain, preferring
// horizontal chains — a horizontal rebuild costs p-3 XORs and p-2 reads in
// Code 5-6, the paper's single-block decode bound, and never touches the
// diagonal-parity disk. If no single chain has all its other members
// readable (multiple failures intersecting every chain), it falls back to
// loading the whole stripe and running the full decoder.
//
//c56:noalloc
func (a *Array) degradedRead(stripe int64, cell layout.Coord, buf []byte) error {
	a.tel.degradedReads.Inc()
	if a.reconstructCell(stripe, cell, buf) {
		a.tel.degradedFast.Inc()
		return nil
	}
	s, es, err := a.loadStripe(stripe)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	if _, err := layout.Reconstruct(a.code, s, es); err != nil { //lint:allow noalloc multi-erasure fallback decodes the whole stripe; the single-chain fast path is the steady state
		return fmt.Errorf("%w: %v", ErrTooManyFailures, err)
	}
	copy(buf, s.Block(cell))
	return nil
}

// reconstructCell tries to rebuild one cell from a single parity chain,
// horizontal chains first. It reports whether any chain succeeded; on
// success buf holds the cell's contents.
//
//c56:noalloc
func (a *Array) reconstructCell(stripe int64, cell layout.Coord, buf []byte) bool {
	for _, horizontal := range [2]bool{true, false} {
		for _, ch := range a.chains {
			if (ch.Kind == layout.ParityH) != horizontal || !chainContains(ch, cell) {
				continue
			}
			if a.xorChainInto(stripe, ch, cell, buf) {
				return true
			}
		}
	}
	return false
}

// chainContains reports whether cell is a member (parity or cover) of ch.
//
//c56:noalloc
func chainContains(ch layout.Chain, cell layout.Coord) bool {
	if ch.Parity == cell {
		return true
	}
	for _, m := range ch.Covers {
		if m == cell {
			return true
		}
	}
	return false
}

// xorChainInto XORs every member of ch except cell into buf. It reports
// false (leaving buf dirty) if any member read fails. The parity and covers
// are walked directly (ch.Members would allocate the combined slice) and the
// read scratch is rented from bufpool, keeping the single-chain degraded
// read allocation-free.
//
//c56:noalloc
func (a *Array) xorChainInto(stripe int64, ch layout.Chain, cell layout.Coord, buf []byte) bool {
	for i := range buf {
		buf[i] = 0
	}
	tmp := bufpool.Get(a.blockSize)
	defer bufpool.Put(tmp)
	xorMember := func(m layout.Coord) bool {
		if m == cell {
			return true
		}
		if err := a.readCell(stripe, m, tmp); err != nil {
			return false
		}
		xorblk.Xor(buf, tmp)
		a.tel.xors.Inc()
		return true
	}
	if !xorMember(ch.Parity) {
		return false
	}
	for _, m := range ch.Covers {
		if !xorMember(m) {
			return false
		}
	}
	return true
}

// WriteBlock writes logical data block L. In a healthy array it performs
// read-modify-write: read the old data, XOR the delta into every covering
// parity. With failures present it falls back to stripe
// reconstruct-modify-write.
//
//c56:noalloc
func (a *Array) WriteBlock(logical int64, data []byte) error {
	if len(data) != a.blockSize {
		return fmt.Errorf("raid6: write of %d bytes, want %d", len(data), a.blockSize)
	}
	a.tel.blockWrites.Inc()
	stripe, cell := a.Locate(logical)
	if len(a.failedColumns()) == 0 {
		return a.writeRMW(stripe, cell, data)
	}
	return a.writeDegraded(stripe, cell, data) //lint:allow noalloc degraded writes reconstruct the whole stripe; RMW is the steady state
}

//c56:noalloc
func (a *Array) writeRMW(stripe int64, cell layout.Coord, data []byte) error {
	old := bufpool.Get(a.blockSize)
	defer bufpool.Put(old)
	if err := a.readCell(stripe, cell, old); err != nil {
		return err
	}
	delta := bufpool.Get(a.blockSize)
	defer bufpool.Put(delta)
	xorblk.XorInto(delta, old, data)
	a.tel.xors.Inc()
	if err := a.writeCell(stripe, cell, data); err != nil {
		return err
	}
	// Propagate the delta through every chain covering the changed cell.
	// Parity cells can themselves be covered by other chains (RDP's
	// diagonals cover the row-parity column; HDP's horizontal chains cover
	// the anti-diagonal parities), so updates cascade; the chain graph is
	// acyclic, so this terminates. Every affected parity absorbs the same
	// block delta, so the cascade queue holds only coordinates — a small
	// fixed array keeps the healthy write path allocation-free.
	var queueArr [16]layout.Coord
	queue := queueArr[:0]
	queue = append(queue, cell) //lint:allow noalloc the cascade queue lives in the fixed 16-slot array
	parity := old               // the old data is folded into delta already; reuse as scratch
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, ci := range a.covering[a.geom.Index(at)] {
			p := a.chains[ci].Parity
			if err := a.readCell(stripe, p, parity); err != nil {
				return err
			}
			xorblk.Xor(parity, delta)
			a.tel.xors.Inc()
			if err := a.writeCell(stripe, p, parity); err != nil {
				return err
			}
			a.tel.parityUpdates.Inc()
			queue = append(queue, p) //lint:allow noalloc the cascade queue lives in the fixed 16-slot array
		}
	}
	return nil
}

func (a *Array) writeDegraded(stripe int64, cell layout.Coord, data []byte) error {
	s, es, err := a.loadStripe(stripe)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	if _, err := layout.Reconstruct(a.code, s, es); err != nil {
		return fmt.Errorf("%w: %v", ErrTooManyFailures, err)
	}
	s.SetBlock(cell, data)
	a.enc.Encode(s)
	a.tel.xors.Add(a.encodeXORs)
	// Write back the changed data cell and every parity on surviving
	// disks; failed columns are skipped (their content is restored at
	// rebuild time).
	write := func(c layout.Coord) error {
		if a.diskFor(stripe, c.Col).Failed() {
			return nil
		}
		return a.writeCell(stripe, c, s.Block(c))
	}
	if err := write(cell); err != nil {
		return err
	}
	for _, ch := range a.chains {
		if err := write(ch.Parity); err != nil {
			return err
		}
		a.tel.parityUpdates.Inc()
	}
	return nil
}

// EncodeStripe recomputes and writes all parities of stripe s from its data
// cells (full-stripe parity generation).
//
//c56:noalloc
func (a *Array) EncodeStripe(stripe int64) error {
	s, es, err := a.loadStripe(stripe)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	if len(es) > 0 {
		return fmt.Errorf("%w: cannot encode with failures present", ErrTooManyFailures)
	}
	a.enc.Encode(s)
	a.tel.stripeEncodes.Inc()
	a.tel.xors.Add(a.encodeXORs)
	for _, ch := range a.chains {
		if err := a.writeCell(stripe, ch.Parity, s.Block(ch.Parity)); err != nil {
			return err
		}
		a.tel.parityUpdates.Inc()
	}
	return nil
}

// VerifyStripe reports whether every parity chain of stripe s holds.
func (a *Array) VerifyStripe(stripe int64) (bool, error) {
	s, es, err := a.loadStripe(stripe)
	if err != nil {
		return false, err
	}
	defer a.stripes.Put(s)
	if len(es) > 0 {
		return false, fmt.Errorf("%w: cannot verify with failures present", ErrTooManyFailures)
	}
	return a.enc.Verify(s), nil
}
