package tpcc

import (
	"math/rand"
	"testing"

	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

func newBench(t *testing.T, warehouses, clients, requests int) (*sim.Engine, *Bench) {
	t.Helper()
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(4))
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, false)
	e, err := innodb.Open(eng, fs, fs, innodb.Config{
		PageBytes:    4 * storage.KB,
		BufferBytes:  8 * storage.MB,
		DataPages:    dev.Pages() * 9 / 10,
		LogFilePages: 8_000,
		LogFiles:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Setup(eng, e, Config{
		Warehouses: warehouses, Clients: clients, Requests: requests, Warmup: requests / 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, b
}

func TestMixSumsTo100(t *testing.T) {
	var sum float64
	for _, pct := range txMix {
		sum += pct
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("tx mix sums to %v", sum)
	}
}

func TestRunProducesTpmC(t *testing.T) {
	eng, b := newBench(t, 4, 16, 4_000)
	res, err := b.Run(eng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 3_000 {
		t.Fatalf("measured %d transactions", res.Total)
	}
	if res.NewOrders == 0 {
		t.Fatal("no NewOrder transactions")
	}
	frac := float64(res.NewOrders) / float64(res.Total)
	if frac < 0.35 || frac > 0.55 {
		t.Fatalf("NewOrder fraction = %v, want ~0.45", frac)
	}
	if res.TpmC() <= 0 {
		t.Fatal("zero tpmC")
	}
	for tt := TxType(0); tt < numTx; tt++ {
		if res.Lat[tt].Count() == 0 {
			t.Fatalf("transaction %d never ran", tt)
		}
	}
}

func TestNonUniformDistribution(t *testing.T) {
	// NURand must stay in range and not be uniform-at-the-extremes.
	eng, b := newBench(t, 4, 1, 10)
	_ = eng
	rng := newTestRNG()
	counts := make(map[int64]int)
	for i := 0; i < 20_000; i++ {
		c := b.cRank(0, rng)
		if c < 0 || c >= customersPerD {
			t.Fatalf("customer rank %d out of range", c)
		}
		counts[c%100]++
	}
	if len(counts) < 50 {
		t.Fatal("NURand collapsed to too few values")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		eng, b := newBench(t, 4, 8, 2_000)
		res, err := b.Run(eng)
		if err != nil {
			t.Fatal(err)
		}
		return res.TpmC()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic tpmC: %v vs %v", a, b)
	}
}

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(11)) }
