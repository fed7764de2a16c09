// Package index models the page-access topology of a B+-tree without
// materializing its bytes: given a page size, record size and key count it
// computes which database pages a lookup, scan or insert touches, including
// the deeper trees that small pages produce — the source of the paper's
// Figure 5 anomaly, where 4 KB pages underperform 8 KB ones when frequent
// flush-caches hide the IOPS advantage of small pages.
//
// Keys are dense 64-bit ranks (0..N-1); the engines map their natural keys
// onto ranks arithmetically. Page IDs are stable: each level owns a fixed
// region sized for MaxRows, so the tree can grow without remapping.
package index

import (
	"fmt"
	"slices"

	"durassd/internal/dbsim/buffer"
)

// Config describes one tree.
type Config struct {
	PageBytes int   // database page size
	RowBytes  int   // leaf record size (including row overhead)
	KeyBytes  int   // internal node entry size (key + child pointer)
	MaxRows   int64 // capacity to reserve page IDs for
}

// fillFactor is the steady-state page fill.
const fillFactor = 0.70

func (c *Config) defaults() error {
	if c.KeyBytes <= 0 {
		c.KeyBytes = 16
	}
	switch {
	case c.PageBytes <= 0:
		return fmt.Errorf("index: PageBytes must be positive")
	case c.RowBytes <= 0 || c.RowBytes > c.PageBytes:
		return fmt.Errorf("index: RowBytes %d invalid for page %d", c.RowBytes, c.PageBytes)
	case c.MaxRows <= 0:
		return fmt.Errorf("index: MaxRows must be positive")
	}
	return nil
}

// Tree is one arithmetic B+-tree.
type Tree struct {
	cfg         Config
	rowsPerLeaf int64
	fanout      int64
	levels      int     // number of levels including the leaf level
	levelBase   []int64 // page-ID offset of each level, leaf level first
	pages       int64   // total page IDs reserved
	base        buffer.PageID
	rows        int64
	inserts     int64
}

// New sizes a tree for cfg and assigns it the page-ID range
// [base, base+Pages()).
func New(cfg Config, base buffer.PageID) (*Tree, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, base: base}
	t.rowsPerLeaf = int64(float64(cfg.PageBytes) / float64(cfg.RowBytes) * fillFactor)
	t.fanout = int64(float64(cfg.PageBytes) / float64(cfg.KeyBytes) * fillFactor)
	if t.rowsPerLeaf < 1 || t.fanout < 2 {
		return nil, fmt.Errorf("index: a %d-byte page holds too few %d-byte rows or %d-byte keys", cfg.PageBytes, cfg.RowBytes, cfg.KeyBytes)
	}
	// Level widths at MaxRows determine the reserved regions; MaxRows is
	// positive, so there is at least one leaf.
	width := (cfg.MaxRows + t.rowsPerLeaf - 1) / t.rowsPerLeaf
	for {
		t.levelBase = append(t.levelBase, t.pages)
		t.pages += width
		t.levels++
		if width == 1 {
			break
		}
		width = (width + t.fanout - 1) / t.fanout
	}
	return t, nil
}

// Pages returns the number of page IDs reserved for the tree.
func (t *Tree) Pages() int64 { return t.pages }

// Rows returns the current row count.
func (t *Tree) Rows() int64 { return t.rows }

// SetRows installs the row count after a bulk load.
func (t *Tree) SetRows(n int64) { t.rows = n }

// Depth returns the number of pages on a root-to-leaf path for the current
// row count: deeper for smaller pages, shallower for larger ones.
func (t *Tree) Depth() int {
	leaves := t.rows / t.rowsPerLeaf
	if leaves < 1 {
		leaves = 1
	}
	d := 1
	for w := leaves; w > 1; w = (w + t.fanout - 1) / t.fanout {
		d++
	}
	if d > t.levels {
		d = t.levels
	}
	return d
}

func (t *Tree) pageAt(level int, idx int64) buffer.PageID {
	return t.base + buffer.PageID(t.levelBase[level]+idx)
}

// SearchPath appends the root-to-leaf page IDs visited when looking up the
// rank (leaf last) to dst and returns the extended slice. A path is Depth()
// pages long, so a caller-owned array of a few entries holds it.
func (t *Tree) SearchPath(dst []buffer.PageID, rank int64) []buffer.PageID {
	if rank < 0 {
		rank = 0
	}
	start, depth := len(dst), t.Depth()
	idx := rank / t.rowsPerLeaf
	for level := 0; level < depth; level++ {
		dst = append(dst, t.pageAt(level, idx))
		idx /= t.fanout
	}
	slices.Reverse(dst[start:])
	return dst
}

// LeafOf returns the leaf page holding the rank.
func (t *Tree) LeafOf(rank int64) buffer.PageID {
	return t.pageAt(0, rank/t.rowsPerLeaf)
}

// ScanLeaves appends the leaf pages covering [startRank, startRank+n) to
// dst and returns the extended slice; nothing when n <= 0.
func (t *Tree) ScanLeaves(dst []buffer.PageID, startRank, n int64) []buffer.PageID {
	if n <= 0 {
		return dst
	}
	first := startRank / t.rowsPerLeaf
	last := (startRank + n - 1) / t.rowsPerLeaf
	for i := first; i <= last; i++ {
		dst = append(dst, t.pageAt(0, i))
	}
	return dst
}

// Insert records an insert of the given rank and appends the pages the
// insert dirties to dst: always the leaf; on a (deterministic, amortized)
// split, the parent as well, one extra level per fanout power.
func (t *Tree) Insert(dst []buffer.PageID, rank int64) []buffer.PageID {
	t.rows++
	t.inserts++
	dst = append(dst, t.LeafOf(rank))
	depth := t.Depth()
	stride := t.rowsPerLeaf
	idx := rank / t.rowsPerLeaf
	for level := 1; level < depth; level++ {
		if t.inserts%stride != 0 {
			break
		}
		idx /= t.fanout
		dst = append(dst, t.pageAt(level, idx))
		stride *= t.fanout
	}
	return dst
}

// Delete records a delete and appends the one page it dirties, the leaf, to
// dst (no rebalancing, like InnoDB's purge in practice).
func (t *Tree) Delete(dst []buffer.PageID, rank int64) []buffer.PageID {
	if t.rows > 0 {
		t.rows--
	}
	dst = append(dst, t.LeafOf(rank))
	return dst
}
