package index

import (
	"slices"
	"testing"
	"testing/quick"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/storage"
)

func newTree(t *testing.T, pageBytes int, rows int64) *Tree {
	t.Helper()
	tr, err := New(Config{PageBytes: pageBytes, RowBytes: 150, MaxRows: rows * 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRows(rows)
	return tr
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{PageBytes: 0, RowBytes: 100, MaxRows: 10}, 0); err == nil {
		t.Fatal("zero page size accepted")
	}
	if _, err := New(Config{PageBytes: 4096, RowBytes: 8192, MaxRows: 10}, 0); err == nil {
		t.Fatal("row bigger than page accepted")
	}
	if _, err := New(Config{PageBytes: 4096, RowBytes: 100, MaxRows: 0}, 0); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestSmallerPagesMakeDeeperTrees(t *testing.T) {
	// The source of the paper's Figure 5 anomaly.
	rows := int64(2_500_000)
	d4 := newTree(t, 4*storage.KB, rows).Depth()
	d16 := newTree(t, 16*storage.KB, rows).Depth()
	if d4 <= d16 {
		t.Fatalf("depth(4KB)=%d <= depth(16KB)=%d for %d rows", d4, d16, rows)
	}
}

func TestSearchPathShape(t *testing.T) {
	tr := newTree(t, 4*storage.KB, 1_000_000)
	path := tr.SearchPath(nil, 123_456)
	if len(path) != tr.Depth() {
		t.Fatalf("path length %d != depth %d", len(path), tr.Depth())
	}
	if path[len(path)-1] != tr.LeafOf(123_456) {
		t.Fatal("path does not end at the key's leaf")
	}
	// Appending keeps what dst held and adds the same path after it.
	again := tr.SearchPath(path, 123_456)
	if len(again) != 2*len(path) || !slices.Equal(again[len(path):], path) {
		t.Fatalf("append onto a path gave %v, want %v twice", again, path)
	}
	// Same leaf for neighbors within one leaf's rows.
	if tr.LeafOf(0) != tr.LeafOf(tr.rowsPerLeaf-1) {
		t.Fatal("neighbors in one leaf map to different pages")
	}
	if tr.LeafOf(0) == tr.LeafOf(tr.rowsPerLeaf) {
		t.Fatal("different leaves map to the same page")
	}
}

func TestPageIDsDisjointAcrossLevels(t *testing.T) {
	tr := newTree(t, 4*storage.KB, 1_000_000)
	seen := make(map[buffer.PageID]bool)
	for _, rank := range []int64{0, 1, 999_999, 500_000} {
		path := tr.SearchPath(nil, rank)
		for i := 0; i < len(path)-1; i++ {
			for j := i + 1; j < len(path); j++ {
				if path[i] == path[j] {
					t.Fatalf("path reuses page %d at two levels", path[i])
				}
			}
		}
		_ = seen
	}
}

func TestScanLeavesCoverRange(t *testing.T) {
	tr := newTree(t, 4*storage.KB, 100_000)
	per := tr.rowsPerLeaf
	leaves := tr.ScanLeaves(nil, 0, per*3)
	if len(leaves) < 3 || len(leaves) > 4 {
		t.Fatalf("scan of 3 leaves' rows returned %d pages", len(leaves))
	}
	if got := tr.ScanLeaves(leaves[:1], 10, 0); len(got) != 1 {
		t.Fatalf("empty scan appended %d pages", len(got)-1)
	}
}

func TestInsertDirtiesLeafAndSometimesParent(t *testing.T) {
	tr := newTree(t, 4*storage.KB, 1000)
	splits := 0
	n := int(tr.rowsPerLeaf) * 10
	for i := 0; i < n; i++ {
		dirty := tr.Insert(nil, int64(i))
		if len(dirty) == 0 || dirty[0] != tr.LeafOf(int64(i)) {
			t.Fatal("insert did not dirty the leaf")
		}
		if len(dirty) > 1 {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("no amortized splits over many inserts")
	}
	if splits > n/int(tr.rowsPerLeaf)+1 {
		t.Fatalf("too many splits: %d", splits)
	}
}

func TestRowsTracked(t *testing.T) {
	tr := newTree(t, 4*storage.KB, 10)
	tr.Insert(nil, 11)
	if tr.Rows() != 11 {
		t.Fatalf("rows = %d", tr.Rows())
	}
	tr.Delete(nil, 5)
	if tr.Rows() != 10 {
		t.Fatalf("rows after delete = %d", tr.Rows())
	}
}

func TestPagesWithinReservation(t *testing.T) {
	check := func(seed int64) bool {
		rows := 1000 + (seed%100_000+100_000)%100_000
		tr, err := New(Config{PageBytes: 8 * storage.KB, RowBytes: 200, MaxRows: rows}, 0)
		if err != nil {
			return false
		}
		tr.SetRows(rows)
		// Every path page must fall inside the reserved range.
		for _, rank := range []int64{0, rows / 2, rows - 1} {
			for _, id := range tr.SearchPath(nil, rank) {
				if int64(id) < 0 || int64(id) >= tr.Pages() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthGrowsWithRows(t *testing.T) {
	tr, _ := New(Config{PageBytes: 4 * storage.KB, RowBytes: 150, MaxRows: 10_000_000}, 0)
	tr.SetRows(10)
	small := tr.Depth()
	tr.SetRows(9_000_000)
	big := tr.Depth()
	if big <= small {
		t.Fatalf("depth did not grow: %d -> %d", small, big)
	}
}
