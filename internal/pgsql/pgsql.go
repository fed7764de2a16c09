// Package pgsql is the PostgreSQL profile of the page engine
// (internal/dbsim/pagedb), the paper's §2.1 second example of software
// torn-page protection: instead of InnoDB's double-write buffer, the engine
// logs the **entire content of a page** into the WAL on the page's first
// modification after a checkpoint (Config.FullPageWrites, the
// full_page_writes option). Torn in-place pages are then repaired from the
// logged image during redo — "at the cost of increasing the amount of data
// to be written to the log". The profile: 8 KB pages, two 128 MB WAL
// files, a checkpoint every 64 MB of WAL, and no double-write area.
//
// On DuraSSD the option can be switched off: device-level atomic page
// writes make the full images redundant, shrinking the log by an order of
// magnitude for small-transaction workloads. The package's tests and the
// repository benchmarks quantify exactly that trade.
package pgsql

import (
	"durassd/internal/dbsim/pagedb"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// The engine's types are the page engine's.
type (
	Config         = pagedb.Config
	Engine         = pagedb.Engine
	Table          = pagedb.Table
	Tx             = pagedb.Tx
	RecoveryReport = pagedb.RecoveryReport
)

var profile = pagedb.Profile{
	Name:     "pgsql",
	DataFile: "pgdata",
	Defaults: Config{
		PageBytes:          8 * storage.KB,
		LogFiles:           2,
		LogFilePages:       32 * 1024,
		CheckpointWALBytes: 64 * storage.MB, // max_wal_size
	},
}

// Open creates an engine on dataFS (data) and logFS (WAL).
func Open(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config) (*Engine, error) {
	return profile.Open(eng, dataFS, logFS, cfg)
}

// Reopen attaches a fresh engine to existing files after a crash. The
// caller then runs Recover.
func Reopen(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config) (*Engine, error) {
	return profile.Reopen(eng, dataFS, logFS, cfg)
}
