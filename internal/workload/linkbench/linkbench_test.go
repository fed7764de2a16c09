package linkbench

import (
	"math/rand"
	"testing"

	"durassd/internal/dbsim/index"
	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

func newBench(t *testing.T, cfg Config) (*sim.Engine, *Bench) {
	t.Helper()
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(8))
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, false)
	e, err := innodb.Open(eng, fs, fs, innodb.Config{
		PageBytes:    4 * storage.KB,
		BufferBytes:  4 * storage.MB,
		DataPages:    dev.Pages() * 8 / 10,
		LogFilePages: 8_000,
		LogFiles:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Setup(eng, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, b
}

func TestOpMixSumsTo100(t *testing.T) {
	var sum float64
	for _, pct := range opMix {
		sum += pct
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("op mix sums to %v", sum)
	}
}

func TestWriteFractionAbout30Pct(t *testing.T) {
	var writes float64
	for op, pct := range opMix {
		if OpType(op).IsWrite() {
			writes += pct
		}
	}
	if writes < 28 || writes > 34 {
		t.Fatalf("write fraction = %v%%, paper says ~30%%", writes)
	}
}

func TestRunProducesAllOpTypes(t *testing.T) {
	eng, b := newBench(t, Config{
		Nodes: 50_000, Clients: 16, Requests: 8_000, Warmup: 500, Seed: 3,
	})
	res, err := b.Run(eng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 7_000 {
		t.Fatalf("measured %d requests", res.Requests)
	}
	if res.TPS() <= 0 {
		t.Fatal("zero TPS")
	}
	for _, op := range OpTypes() {
		if res.Hist(op).Count() == 0 {
			t.Fatalf("op %s never executed", op)
		}
	}
	if res.MissRatio <= 0 || res.MissRatio >= 1 {
		t.Fatalf("miss ratio = %v", res.MissRatio)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		eng, b := newBench(t, Config{
			Nodes: 30_000, Clients: 8, Requests: 3_000, Warmup: 200, Seed: 7,
		})
		res, err := b.Run(eng)
		if err != nil {
			t.Fatal(err)
		}
		return res.TPS()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic TPS: %v vs %v", a, b)
	}
}

func TestScatteredIDsStayInRange(t *testing.T) {
	eng, b := newBench(t, Config{Nodes: 10_000, Clients: 1, Requests: 1, Warmup: 0})
	_ = eng
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.01, 20, uint64(b.cfg.Nodes-1))
	for i := 0; i < 10_000; i++ {
		id := b.nodeID(zipf)
		if id < 0 || id >= b.cfg.Nodes {
			t.Fatalf("scattered id %d out of range", id)
		}
	}
}

func TestSchemaFitsReservation(t *testing.T) {
	// The three tables must fit the reserved data-file range.
	eng := sim.New()
	dev, _ := ssd.New(eng, ssd.DuraSSD(8))
	fs := host.NewFS(dev, false)
	e, err := innodb.Open(eng, fs, fs, innodb.Config{
		PageBytes:    16 * storage.KB,
		BufferBytes:  4 * storage.MB,
		DataPages:    dev.Pages() * int64(dev.PageSize()) / int64(16*storage.KB) * 8 / 10,
		LogFilePages: 4_000,
		LogFiles:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Setup(eng, e, Config{Nodes: 100_000, Clients: 128}); err != nil {
		t.Fatal(err)
	}
	var _ = index.Config{}
}
