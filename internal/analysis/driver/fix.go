package driver

import (
	"fmt"
	"go/format"
	"go/token"
	"os"
	"sort"
)

// edit is one text edit resolved to byte offsets in its file.
type edit struct {
	start, end int
	text       []byte
}

// Fixed applies the first suggested fix of every finding that has one to
// the source it edits, in memory, and returns the new contents of each
// touched file keyed by file name. Edits apply largest offset first so
// earlier ones stay valid; overlapping or out-of-range edits are an error.
// Each result is gofmt-formatted when it parses. Run's fix mode writes what
// Fixed returns; the golden harness compares it with .golden files.
func Fixed(fset *token.FileSet, findings []Finding) (map[string][]byte, error) {
	edits := make(map[string][]edit) // file name -> edits
	for _, f := range findings {
		if len(f.SuggestedFixes) == 0 {
			continue
		}
		for _, te := range f.SuggestedFixes[0].TextEdits {
			p := fset.Position(te.Pos)
			edits[p.Filename] = append(edits[p.Filename], edit{
				start: p.Offset,
				end:   fset.Position(te.End).Offset,
				text:  te.NewText,
			})
		}
	}
	out := make(map[string][]byte, len(edits))
	for name, es := range edits {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		sort.Slice(es, func(i, j int) bool { return es[i].start > es[j].start })
		prevStart := len(src) + 1
		for _, e := range es {
			if e.end > prevStart || e.start > e.end || e.end > len(src) {
				return nil, fmt.Errorf("simlint: overlapping or out-of-range fixes in %s", name)
			}
			src = append(src[:e.start], append(append([]byte{}, e.text...), src[e.end:]...)...)
			prevStart = e.start
		}
		// A file that no longer parses keeps its edits unformatted
		// rather than losing the fix.
		if formatted, err := format.Source(src); err == nil {
			src = formatted
		}
		out[name] = src
	}
	return out, nil
}
