package faults

import (
	"fmt"
	"maps"
	"slices"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/pagedb"
	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/pgsql"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// EngineKind selects the database engine under test.
type EngineKind string

// Engines under test. Both implement torn-page protection in software —
// InnoDB with the double-write buffer, PostgreSQL with full-page writes —
// and both can switch it off, which is only safe on a device with atomic
// page writes (the paper's §2.1).
const (
	EngineInnoDB EngineKind = "innodb" // default
	EnginePgSQL  EngineKind = "pgsql"
)

const (
	tableRows = 4_000
	rowBytes  = 200
	maxRows   = 8_000
)

// harness drives one database engine over the surface a crash experiment
// needs: open + load, committed updates, crash-recover, and a raw
// page-version audit. Both engines are profiles of one page engine, so the
// kind only picks the constructors and the configuration.
type harness struct {
	open, reopen func(*sim.Engine, *host.FS, *host.FS, pagedb.Config) (*pagedb.Engine, error)
	cfg          pagedb.Config
	e            *pagedb.Engine // before the crash; the recovered engine after it
	table        *pagedb.Table
}

func newHarness(s Scenario) (*harness, error) {
	h := &harness{cfg: pagedb.Config{
		BufferBytes:  256 * storage.KB, // tiny pool: changes reach the device fast
		LogFilePages: 4_000,
		LogFiles:     1,
		RealBytes:    true,
	}}
	switch s.Engine {
	case EngineInnoDB:
		h.open, h.reopen = innodb.Open, innodb.Reopen
		h.cfg.PageBytes, h.cfg.DataPages = 4*storage.KB, 20_000
		h.cfg.DoubleWrite = s.DoubleWrite
	case EnginePgSQL:
		h.open, h.reopen = pgsql.Open, pgsql.Reopen
		h.cfg.PageBytes, h.cfg.DataPages = 8*storage.KB, 10_000 // a page over two 4 KB device slots
		h.cfg.FullPageWrites = s.DoubleWrite
	default:
		return nil, fmt.Errorf("faults: unknown engine %q", s.Engine)
	}
	return h, nil
}

// load creates the engine on fs, creates the table and bulk-loads it.
func (h *harness) load(eng *sim.Engine, fs *host.FS) error {
	e, err := h.open(eng, fs, fs, h.cfg)
	if err != nil {
		return err
	}
	h.e = e
	h.table, err = e.CreateTable("t", index.Config{RowBytes: rowBytes, MaxRows: maxRows})
	if err != nil {
		return err
	}
	return h.table.BulkLoad(tableRows)
}

// update runs one committed single-row update and returns the page versions
// the acknowledged transaction touched.
func (h *harness) update(p *sim.Proc, rank int64) ([]pagedb.PageVersion, error) {
	tx := h.e.Begin()
	if err := tx.Update(p, h.table, rank); err != nil {
		return nil, err
	}
	if err := tx.Commit(p); err != nil {
		return nil, err
	}
	return tx.Touched(), nil
}

// recoverCrashed reopens a fresh engine over the same files (after the
// device rebooted; the pre-crash engine must be closed) and runs crash
// recovery. On success h.e is the recovered engine, which the caller audits
// and closes.
func (h *harness) recoverCrashed(p *sim.Proc, eng *sim.Engine, fs *host.FS) (*pagedb.RecoveryReport, error) {
	e, err := h.reopen(eng, fs, fs, h.cfg)
	if err != nil {
		return nil, err
	}
	rep, err := e.Recover(p)
	if err != nil {
		e.Close()
		return nil, err
	}
	h.e = e
	return rep, nil
}

// audit checks that every acked page version is on the device (or a newer
// one), tallying the rest on v. Each probe is a device read, so the pages go
// in ascending order, not the map's — which also puts the findings in
// (Member, Key) order.
func (h *harness) audit(p *sim.Proc, acked map[buffer.PageID]uint64, v *Verdict) error {
	ids := slices.AppendSeq(make([]buffer.PageID, 0, len(acked)), maps.Keys(acked))
	slices.Sort(ids)
	for _, id := range ids {
		got, ok, err := h.e.PageVersionOnDisk(p, id)
		if err != nil {
			return err
		}
		if want := acked[id]; !ok || got < want {
			v.LostCommits++
			if len(v.Losses) < maxLosses {
				v.Losses = append(v.Losses, Loss{Key: uint64(id), Acked: want, Found: got, Torn: !ok})
			}
		}
	}
	return nil
}
