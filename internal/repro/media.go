package repro

import (
	"errors"
	"fmt"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// The sweep's fixed size: the cold working set (logical slots) audited at
// the end, and the aging rounds before the audit. Each round is ~2 ms of
// virtual retention time with one hot write to keep the flush worker (and
// thus the scrubber's idle wakeups) cycling.
const (
	mediaPages  = 16
	mediaRounds = 120
)

// mediaRates is the retention-loss sweep: expected soft bit errors per page
// per millisecond of virtual time. The ECC corrects 8 bits per page and the
// DuraSSD profile retries reads 3 times (each retry halving the transient
// errors), so a page is recoverable until ~72 accumulated soft errors. Over
// the ~250 ms aging window the low rate needs at most one retry, the middle
// rate leans on the full retry ladder, and the top rate sails past the
// ceiling — unreadable unless the scrubber refreshed it first.
var mediaRates = []float64{0.05, 0.15, 0.4}

func mediaCell(rate float64, scrub bool) string {
	s := "off"
	if scrub {
		s = "on"
	}
	return fmt.Sprintf("rate=%g/scrub=%s", rate, s)
}

// media crosses retention error rates with scrubbing on/off on a raw
// DuraSSD and counts uncorrectable host reads. It is the device-level
// durability complement to the throughput sweeps: a durable write cache is
// worthless if the flash behind it silently rots, so the firmware patrols
// and refreshes aging pages before retention outruns the ECC. The sweep is
// sized to what one scrubber proc can actually sustain — a refresh program
// costs 900 µs of virtual time, so patrol capacity is ~1.1 pages/ms and the
// cold set is kept small enough that the top rate is still refreshable.
// It has no op count. Metrics: media/uncorrectable/<cell> (audit reads still
// failing after all retries; the paper-facing claim is that this stays zero
// with scrubbing on at every swept rate) and media/refreshes/<cell>
// (scrubber/read-triggered page rewrites).
func media(cfg Config) (*Result, error) {
	res := newResult()
	tbl := stats.NewTable("Media sweep: retention error rate × scrubbing (DuraSSD, raw device)",
		"Rate (bits/ms)", "Scrub", "Uncorrectable", "Retries", "Corrected bits", "Scrub passes", "Refreshes")
	for _, rate := range mediaRates {
		for _, scrub := range []bool{false, true} {
			cell := mediaCell(rate, scrub)
			uncorrectable, st, err := mediaCellRun(cfg, rate, scrub)
			if err != nil {
				return nil, fmt.Errorf("media sweep %s: %w", cell, err)
			}
			res.Metrics["media/uncorrectable/"+cell] = float64(uncorrectable)
			res.Metrics["media/refreshes/"+cell] = float64(st.RefreshPrograms)
			scrubbing := "off"
			if scrub {
				scrubbing = "on"
			}
			tbl.AddRow(rate, scrubbing, uncorrectable, st.ReadRetries, st.CorrectedBits,
				st.ScrubPasses, st.RefreshPrograms)
		}
	}
	tbl.AddComment("uncorrectable: audit reads still failing after ECC + 3 read retries")
	tbl.AddComment("scrub on keeps every swept rate readable by refreshing pages before retention outruns the ECC")
	res.Tables = []*stats.Table{tbl}
	return res, nil
}

// mediaCellRun runs one sweep cell: fill a cold working set, let it age
// while a trickle of hot writes keeps the device awake (idle windows are
// what wake the scrubber), then audit-read every cold page and count
// uncorrectable host reads.
func mediaCellRun(cfg Config, rate float64, scrub bool) (int64, *storage.Stats, error) {
	eng := sim.New()
	defer eng.Close()
	prof := ssd.DuraSSD(cfg.Scale)
	prof.NAND.Media = nand.MediaConfig{Seed: cfg.Seed, RetentionPerMs: rate}
	// A cache smaller than the cold set so audit reads actually reach the
	// NAND instead of being served from DRAM, and no reserve pool: the
	// sweep isolates patrol reads and refresh, not bad-block retirement.
	prof.Cache.Frames = mediaPages / 2
	prof.FTL.ReserveBlocks = 0
	if scrub {
		prof.FTL.ScrubInterval = 2 * time.Millisecond
	}
	dev, err := ssd.New(eng, prof)
	if err != nil {
		return 0, nil, err
	}
	var uncorrectable int64
	var runErr error
	eng.Go("media-sweep", func(p *sim.Proc) {
		reg := dev.Registry()
		buf := make([]byte, dev.PageSize())
		write := func(lpn storage.LPN) bool {
			req := reg.NewReq(p, iotrace.OpWrite, iotrace.OriginUnknown, uint64(lpn), 1)
			err := dev.Write(p, req, lpn, 1, buf)
			req.Finish(p)
			if err != nil {
				runErr = fmt.Errorf("write %d: %w", lpn, err)
				return false
			}
			return true
		}
		for i := 0; i < mediaPages; i++ {
			if !write(storage.LPN(i)) {
				return
			}
		}
		freq := reg.NewReq(p, iotrace.OpFlush, iotrace.OriginUnknown, 0, 0)
		err := dev.Flush(p, freq)
		freq.Finish(p)
		if err != nil {
			runErr = fmt.Errorf("flush: %w", err)
			return
		}
		// Age the cold set. The hot-page writes keep the flush worker
		// cycling, which is what wakes the scrubber between rounds (real
		// firmware patrols in exactly these idle windows).
		hot := storage.LPN(mediaPages)
		for r := 0; r < mediaRounds; r++ {
			p.Sleep(2 * time.Millisecond)
			if !write(hot + storage.LPN(r%4)) {
				return
			}
		}
		// Audit: every cold page must still be readable.
		for i := 0; i < mediaPages; i++ {
			lpn := storage.LPN(i)
			req := reg.NewReq(p, iotrace.OpRead, iotrace.OriginUnknown, uint64(lpn), 1)
			err := dev.Read(p, req, lpn, 1, buf)
			req.Finish(p)
			if errors.Is(err, storage.ErrUncorrectable) {
				uncorrectable++
			} else if err != nil {
				runErr = fmt.Errorf("read %d: %w", lpn, err)
				return
			}
		}
	})
	eng.Run()
	if runErr != nil {
		return 0, nil, runErr
	}
	return uncorrectable, dev.Stats(), nil
}
