package repro

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"durassd/internal/stats"
)

// SchemaVersion identifies the JSON result schema shared by every
// benchmark command (-json flag). Bump it when the shape changes so
// downstream tooling can dispatch on it.
const SchemaVersion = 1

// JSONTable is the machine-readable form of one result table: the same
// formatted cells the terminal rendering shows, plus the raw structure.
type JSONTable struct {
	Title    string     `json:"title"`
	Header   []string   `json:"header"`
	Rows     [][]string `json:"rows"`
	Comments []string   `json:"comments,omitempty"`
}

// TableJSON converts a stats.Table into its serialized form.
func TableJSON(t *stats.Table) JSONTable {
	return JSONTable{
		Title:    t.Title,
		Header:   t.Header(),
		Rows:     t.Rows(),
		Comments: t.Comments(),
	}
}

// JSONReport is the result document every benchmark command emits with
// -json: which tool ran with which knobs, the tables it printed, and a
// flat map of scalar metrics (raw IOPS/TPS values keyed by experiment and
// cell) for plotting and regression tracking without string-parsing the
// tables.
type JSONReport struct {
	Schema  int                `json:"schema"`
	Tool    string             `json:"tool"`
	Config  map[string]any     `json:"config,omitempty"`
	Tables  []JSONTable        `json:"tables"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NewJSONReport starts a report for the named tool.
func NewJSONReport(tool string) *JSONReport {
	return &JSONReport{Schema: SchemaVersion, Tool: tool}
}

// SetConfig records one configuration knob.
func (r *JSONReport) SetConfig(key string, value any) {
	if r.Config == nil {
		r.Config = make(map[string]any)
	}
	r.Config[key] = value
}

// AddTable appends a rendered table.
func (r *JSONReport) AddTable(t *stats.Table) {
	if t != nil {
		r.Tables = append(r.Tables, TableJSON(t))
	}
}

// AddMetric records one scalar under a hierarchical key, e.g.
// "table1/DuraSSD/ON/fsync=1".
func (r *JSONReport) AddMetric(key string, value float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[key] = value
}

// SortedKeys returns m's keys in sorted order. Report assembly iterates
// result maps through it so that metric insertion order is deterministic
// (simlint's maporder analyzer enforces this at the call sites).
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// WriteFile marshals the report (indented, trailing newline) to path;
// "-" writes to stdout.
func (r *JSONReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("repro: writing JSON report: %w", err)
	}
	return nil
}
