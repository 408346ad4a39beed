package raid6

import (
	"fmt"

	"code56/internal/layout"
)

// rebuildStripe reconstructs the given disks' cells of one stripe.
func (a *Array) rebuildStripe(st int64, disks []int) error {
	s, es, err := a.loadStripe(st)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	if es == nil {
		es = make(layout.ErasureSet, len(disks)*a.geom.Rows)
	}
	for _, d := range disks {
		col := a.colOnDisk(st, d)
		for r := 0; r < a.geom.Rows; r++ {
			c := layout.Coord{Row: r, Col: col}
			s.Zero(c)
			es[c] = true
		}
	}
	if _, err := layout.Reconstruct(a.code, s, es); err != nil {
		return fmt.Errorf("%w: stripe %d: %v", ErrTooManyFailures, st, err)
	}
	for _, d := range disks {
		col := a.colOnDisk(st, d)
		for r := 0; r < a.geom.Rows; r++ {
			c := layout.Coord{Row: r, Col: col}
			if err := a.writeCell(st, c, s.Block(c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteStripe writes all data blocks of one stripe at once and encodes its
// parities in a single pass — the full-stripe write optimization: no block
// is read, every cell is written exactly once (2 writes per data block at
// MDS rates, versus up to 6 I/Os per block through read-modify-write).
// data must contain exactly DataPerStripe() blocks, in Locate order. The
// array must be healthy.
func (a *Array) WriteStripe(stripe int64, data [][]byte) error {
	if len(data) != len(a.dataCells) {
		return fmt.Errorf("raid6: full-stripe write of %d blocks, want %d", len(data), len(a.dataCells))
	}
	if len(a.failedColumns()) > 0 {
		return fmt.Errorf("%w: full-stripe write needs a healthy array", ErrTooManyFailures)
	}
	s := a.stripes.Get()
	defer a.stripes.Put(s)
	for i, b := range data {
		if len(b) != a.blockSize {
			return fmt.Errorf("raid6: block %d has %d bytes, want %d", i, len(b), a.blockSize)
		}
		s.SetBlock(a.dataCells[i], b)
	}
	a.enc.Encode(s)
	for r := 0; r < a.geom.Rows; r++ {
		for j := 0; j < a.geom.Cols; j++ {
			c := layout.Coord{Row: r, Col: j}
			if err := a.writeCell(stripe, c, s.Block(c)); err != nil {
				return err
			}
		}
	}
	return nil
}
