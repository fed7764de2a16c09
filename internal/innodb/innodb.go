// Package innodb is the MySQL/InnoDB profile of the page engine
// (internal/dbsim/pagedb): 16 KB pages, three 256 MB redo files, no
// WAL-budget checkpoint, and a double-write area — the redundant-write
// mechanism the paper's Figure 5 turns on and off with Config.DoubleWrite —
// that is allocated beside the data file whether the knob is on or not, as
// InnoDB's system tablespace does.
package innodb

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
	Name:     "innodb",
	DataFile: "ibdata",
	DWBFile:  "ib-doublewrite",
	Defaults: Config{
		PageBytes:    16 * storage.KB,
		LogFiles:     3,
		LogFilePages: 64 * 1024, // 256 MB at 4 KB device pages
	},
}

// Open creates an engine with its data files on dataFS and redo log on
// logFS (the paper gives the log its own DuraSSD; pass the same FS to share
// one device).
func Open(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config) (*Engine, error) {
	return profile.Open(eng, dataFS, logFS, cfg)
}

// Reopen attaches a fresh engine (empty buffer pool, as after a process or
// power crash) to existing data and log files. The caller then runs Recover.
func Reopen(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config) (*Engine, error) {
	return profile.Reopen(eng, dataFS, logFS, cfg)
}
