// Package stats provides latency histograms, throughput accounting and
// small table-rendering helpers used by the benchmark harnesses to print
// the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Hist is a geometric-bucket latency histogram (~12% resolution from 1 µs
// to ~10 hours). The zero value is ready to use.
type Hist struct {
	buckets [nbuckets]int64
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	nbuckets = 256
	base     = float64(time.Microsecond)
	ratio    = 1.12
)

var logRatio = math.Log(ratio)

func bucketOf(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	b := int(math.Log(float64(d)/base)/logRatio) + 1
	if b >= nbuckets {
		b = nbuckets - 1
	}
	return b
}

// boundOf returns the upper bound of bucket b.
func boundOf(b int) time.Duration {
	if b == 0 {
		return time.Microsecond
	}
	return time.Duration(base * math.Pow(ratio, float64(b)))
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the total of all observations.
func (h *Hist) Sum() time.Duration { return h.sum }

// Mean returns the average observation.
func (h *Hist) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest observation.
func (h *Hist) Min() time.Duration { return h.min }

// Max returns the largest observation.
func (h *Hist) Max() time.Duration { return h.max }

// Percentile returns the q-quantile (0 < q <= 100) as the upper bound of
// the bucket containing it.
func (h *Hist) Percentile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q / 100 * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < nbuckets; b++ {
		cum += h.buckets[b]
		if cum >= target {
			ub := boundOf(b)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	if other.count == 0 {
		return
	}
	for b := range other.buckets {
		h.buckets[b] += other.buckets[b]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Throughput converts an operation count over a virtual-time window into
// operations per second.
func Throughput(ops int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(ops) / window.Seconds()
}

// Table accumulates rows and renders them with aligned columns, in the
// spirit of the paper's tables.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	comment []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; values are formatted with %v (floats compactly).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddComment appends a footnote line printed under the table.
func (t *Table) AddComment(format string, args ...any) {
	t.comment = append(t.comment, fmt.Sprintf(format, args...))
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return commafy(fmt.Sprintf("%.0f", v))
	case math.Abs(v) >= 100:
		return commafy(fmt.Sprintf("%.0f", v))
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func formatDuration(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0fms", ms)
	case ms >= 1:
		return fmt.Sprintf("%.1fms", ms)
	default:
		// Sub-millisecond values rendered as "0.00ms" lose the detail that
		// matters most at device-cache speeds; print microseconds instead.
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// commafy inserts thousands separators into a decimal integer string.
func commafy(s string) string {
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	if len(s) <= 3 {
		if neg {
			return "-" + s
		}
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// Rows returns the formatted rows (callers must not mutate them).
func (t *Table) Rows() [][]string { return t.rows }

// Comments returns the footnote lines.
func (t *Table) Comments() []string { return t.comment }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hcell := range t.header {
		widths[i] = len(hcell)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.rows {
		line(row)
	}
	for _, c := range t.comment {
		fmt.Fprintf(&b, "# %s\n", c)
	}
	return b.String()
}
